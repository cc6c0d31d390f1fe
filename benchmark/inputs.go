package main

import (
	"math"
	"math/rand"

	"quhe/internal/edge"
)

// payloadsPerLane is the size of each lane's payload ring: op k of a
// lane sends payload k mod payloadsPerLane, so the op order is a pure
// function of the seed.
const payloadsPerLane = 8

// Input streams: every generated value comes from a rand.Rand seeded by
// (seed, stream), so adding a stream never shifts another's values.
const (
	streamModel = iota
	streamKeygen
	streamDeposit
	streamPayload
	streamExchange
)

func streamRand(seed int64, stream, lane int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*10_007 + int64(lane)))
}

// payload is one request's input with the plaintext model's answer.
type payload struct {
	x    []float64
	want []float64
}

// laneInputs is the payload ring of one closed-loop lane (a goroutine
// driving one connection): affine blocks and matvec vectors.
type laneInputs struct {
	affine []payload
	matvec []payload
}

// inputs is the full generated input set of one run. The program under
// test sees nothing of the seed but these values.
type inputs struct {
	seed  int64
	model edge.Model
	lanes []laneInputs
	// keygenSeed[c] seeds connection c's HE key generation; churn derives
	// per-session seeds from it.
	keygenSeed []int64
}

// affineWeights and affineBias are deliberately shorter than any block:
// slots past them pass through unchanged (weight 1, bias 0), which the
// oracle must reproduce.
const (
	affineWeights = 8
	affineBias    = 4
)

func genInputs(w *workload, seed int64) *inputs {
	in := &inputs{seed: seed}
	mr := streamRand(seed, streamModel, 0)
	in.model.Weights = make([]float64, affineWeights)
	for i := range in.model.Weights {
		in.model.Weights[i] = 0.25 + 1.5*mr.Float64()
	}
	in.model.Bias = make([]float64, affineBias)
	for i := range in.model.Bias {
		in.model.Bias[i] = mr.Float64() - 0.5
	}
	if n := w.matDim; n > 0 {
		// Dense, every diagonal non-zero; entries scaled so |M·x| stays O(1).
		scale := 1 / math.Sqrt(float64(n))
		in.model.Matrix = make([][]float64, n)
		for i := range in.model.Matrix {
			row := make([]float64, n)
			for j := range row {
				row[j] = (2*mr.Float64() - 1) * scale
			}
			in.model.Matrix[i] = row
		}
		in.model.MatrixBias = make([]float64, n)
		for i := range in.model.MatrixBias {
			in.model.MatrixBias[i] = mr.Float64() - 0.5
		}
	}
	in.keygenSeed = make([]int64, w.clients)
	kr := streamRand(seed, streamKeygen, 0)
	for c := range in.keygenSeed {
		in.keygenSeed[c] = 1 + kr.Int63n(1<<40)
	}
	in.lanes = make([]laneInputs, w.clients*w.inflight)
	for l := range in.lanes {
		pr := streamRand(seed, streamPayload, l)
		li := &in.lanes[l]
		for k := 0; k < payloadsPerLane; k++ {
			x := randVec(pr, w.blockSlots)
			li.affine = append(li.affine, payload{x: x, want: affineModel(&in.model, x)})
			if w.matDim > 0 {
				v := randVec(pr, w.matDim)
				li.matvec = append(li.matvec, payload{x: v, want: matvecModel(&in.model, v)})
			}
		}
	}
	return in
}

func randVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*r.Float64() - 1
	}
	return v
}

// deposit returns the QKD key bytes deposited for session number n of a
// lane: a pure function of (seed, lane, n).
func (in *inputs) deposit(lane, n, size int) []byte {
	r := streamRand(in.seed, streamDeposit, lane*1_000_000+n)
	b := make([]byte, size)
	r.Read(b)
	return b
}

// affineModel is the plaintext oracle of the served slot-wise affine
// layer: out[i] = w[i]·x[i] + b[i], with w = 1 and b = 0 past the ends of
// the model's vectors.
func affineModel(m *edge.Model, x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		if i < len(m.Weights) {
			v *= m.Weights[i]
		}
		if i < len(m.Bias) {
			v += m.Bias[i]
		}
		out[i] = v
	}
	return out
}

// matvecModel is the plaintext oracle of the served dense layer M·x + b.
func matvecModel(m *edge.Model, x []float64) []float64 {
	out := make([]float64, len(m.Matrix))
	for i, row := range m.Matrix {
		var acc float64
		for j, v := range x {
			acc += row[j] * v
		}
		if i < len(m.MatrixBias) {
			acc += m.MatrixBias[i]
		}
		out[i] = acc
	}
	return out
}

// maxAbsDiff is the oracle's error measure; a reply of the wrong length or
// holding a NaN is infinitely wrong.
func maxAbsDiff(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	var worst float64
	for i := range got {
		d := math.Abs(got[i] - want[i])
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		worst = math.Max(worst, d)
	}
	return worst
}
