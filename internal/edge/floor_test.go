package edge

import (
	"errors"
	"math"
	"testing"

	"quhe/internal/he/ckks"
	"quhe/internal/he/profile"
	"quhe/internal/he/ring"
	"quhe/internal/serve"
)

// payloadBytes is the coefficient payload of a ciphertext on the wire.
func payloadBytes(ct *ckks.Ciphertext) int {
	n := 0
	for _, comp := range []ring.RNSPoly{ct.C0, ct.C1} {
		for _, limb := range comp {
			n += 8 * len(limb)
		}
	}
	return n
}

// computeOnce sets up session id on p and serves one compute block of x
// through it, returning the masked block it sent and the reply.
func computeOnce(t *testing.T, p *rawPeer, id string, x []float64) ([]float64, []*ckks.Ciphertext, *ckks.Ciphertext) {
	t.Helper()
	encKey := p.encKey(t)
	p.grant(t, id)
	if rep := p.setup(t, p.setupRequest(encKey)); replyError(rep.Code, rep.Err) != nil {
		t.Fatalf("setup refused: %+v", rep)
	}
	masked := p.mask(t, 1, x)
	req := &ComputeRequest{Block: 1, Epoch: 1, Masked: masked}
	rep, err := decodeComputeReply(p.call(t, frameCompute, frameComputeReply,
		func(b []byte) []byte { return appendComputeRequest(b, req) }))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Code != serve.CodeOK || rep.Result == nil {
		t.Fatalf("compute: %+v", rep)
	}
	return masked, encKey, rep.Result
}

// TestAffineReplyAtFloor: a λ-128k affine reply leaves at level 0 — one
// limb, 65,536 payload bytes against the 131,072 of the level-1 block the
// transcipher leaves — and it is that block's bottom limb, so it decrypts
// to bit-identical values: the client reads the same integer.
func TestAffineReplyAtFloor(t *testing.T) {
	model := Model{Weights: []float64{0.8, -0.6, 1.5}, Bias: []float64{0.05, -0.3}}
	srv := startServer(t, model)
	p := newRawPeerOn(t, 231, profile.IDLambda128k)
	p.dial(t, srv.Addr())
	x := []float64{0.5, -0.25, 1, 0.75}
	masked, encKey, got := computeOnce(t, p, "floor", x)
	if got.Level != 0 || len(got.C0) != 1 || len(got.C1) != 1 {
		t.Fatalf("reply at level %d with %d+%d limbs, want level 0 with one limb each", got.Level, len(got.C0), len(got.C1))
	}
	if n := payloadBytes(got); n != 65536 {
		t.Errorf("reply payload %d bytes, want 65,536", n)
	}

	block, err := p.cipher.TranscipherAffineWith(nil, p.ev, p.rlk, encKey, p.nonce, 1, masked, model.Weights, model.Bias)
	if err != nil {
		t.Fatal(err)
	}
	if block.Level != 1 || payloadBytes(block) != 131072 {
		t.Fatalf("transciphered block at level %d with %d payload bytes, want level 1 and 131,072", block.Level, payloadBytes(block))
	}
	for c, pair := range [2][2]ring.Poly{{got.C0[0], block.C0[0]}, {got.C1[0], block.C1[0]}} {
		for i, v := range pair[1] {
			if pair[0][i] != v {
				t.Fatalf("reply c%d coefficient %d = %d, the block's bottom limb holds %d", c, i, pair[0][i], v)
			}
		}
	}
	floor, top := p.decrypt(got), p.decrypt(block)
	for i := range top {
		if math.Float64bits(floor[i]) != math.Float64bits(top[i]) {
			t.Fatalf("slot %d decodes to %v at level 0, %v at level 1", i, floor[i], top[i])
		}
	}
	for i, xi := range x {
		w, b := 1.0, 0.0
		if i < len(model.Weights) {
			w = model.Weights[i]
		}
		if i < len(model.Bias) {
			b = model.Bias[i]
		}
		if want := w*xi + b; math.Abs(floor[i]-want) > 1e-6 {
			t.Errorf("slot %d = %v, want %v", i, floor[i], want)
		}
	}
}

// TestModelPastHeadroomRefused: NewServer refuses, with ErrModelHeadroom,
// a model whose reply slots at inputs |x| ≤ 1 could pass 2⁸, imaginary
// parts included — an affine weight, its square's imaginary part, a bias
// past the model's ends, a matrix row sum with the imaginary parts of its
// input — and accepts one on the bound.
func TestModelPastHeadroomRefused(t *testing.T) {
	for name, m := range map[string]Model{
		"weight":                  {Weights: []float64{1, 300}},
		"weight's imaginary part": {Weights: []float64{22}},
		"weight and bias":         {Weights: []float64{21.5}, Bias: []float64{3.5}},
		"bias past the weights":   {Weights: []float64{1}, Bias: []float64{0, 256}},
		"matrix row":              {Matrix: [][]float64{{0.5, 0}, {200, -60}}},
		"matrix row's imaginary":  {Matrix: [][]float64{{100, -71}, {0, 1}}, MatrixBias: []float64{0.5}},
		"matrix row and bias":     {Matrix: [][]float64{{85, 85}, {0, 1}}, MatrixBias: []float64{1.5}},
	} {
		if srv, err := NewServer("127.0.0.1:0", ServerConfig{Model: m}); !errors.Is(err, ErrModelHeadroom) {
			if srv != nil {
				srv.Close()
			}
			t.Errorf("%s: NewServer err = %v, want ErrModelHeadroom", name, err)
		}
	}
	startServer(t, Model{Weights: []float64{-21.5}, Bias: []float64{2.5}, Matrix: [][]float64{{100, -70}, {0, 1}}, MatrixBias: []float64{-0.5}})
}

// TestLargestModelServes: the largest quarter-step weight the headroom
// check accepts at bias 0.5, w = 21.5 (|w| + |b| + w²/2 = 253.125),
// decodes to w·x + b on every profile in the tight case: the weight on
// every slot and every input 1, so the real part is one constant
// coefficient, and every key coordinate −1, the largest Σk², so the
// imaginary parts, ≈ −w²·Σk²/384 on average, are largest too.
func TestLargestModelServes(t *testing.T) {
	const w, b = 21.5, 0.5
	for i, id := range []string{profile.IDLambda32k, profile.IDLambda64k, profile.IDLambda128k} {
		p := newRawPeerOn(t, int64(241+i), id)
		for j := range p.key {
			p.key[j] = -1
		}
		slots := p.cipher.Slots()
		model := Model{Weights: make([]float64, slots), Bias: make([]float64, slots)}
		x := make([]float64, slots)
		for s := range x {
			model.Weights[s], model.Bias[s], x[s] = w, b, inputBound
		}
		srv := startServer(t, model)
		p.dial(t, srv.Addr())
		_, _, got := computeOnce(t, p, "largest", x)
		worst := 0.0
		for s, v := range p.decrypt(got) {
			worst = math.Max(worst, math.Abs(v-(w*x[s]+b)))
		}
		t.Logf("%s: w = %g on %d slots, worst |error| %.3g", id, w, slots, worst)
		if worst > 1e-6 {
			t.Errorf("%s: a reply slot decodes %.3g from w·x + b = %g", id, worst, w*inputBound+b)
		}
	}
}

// TestImaginaryPartsNeedHeadroom: the imaginary parts are why
// checkHeadroom counts blockIm. A model inside |w|·|x| + |b| ≤ 2⁸ on every
// slot — w = 255.5, b = −0.5 at x = −1 on the even slots, w = 0, b = 256
// on the odd ones — is refused, and it has to be. Slot s sits at the root
// ζ^(5^s) and 5^s ≡ 1 or 5 mod 8, so coefficient N/4 is (√2/4)·(V − U)
// for V and U the Re + Im of the even and odd slots. The even slots carry
// Im ≈ −w²·Σk²/384, −1,360 at k = −1, so V − U ≈ −256 − 1,360 − 256 puts
// that coefficient near −660, past 2⁹: the block decodes at level 1 and
// wraps at level 0. Without the imaginary parts it would sit at −181.
func TestImaginaryPartsNeedHeadroom(t *testing.T) {
	p := newRawPeerOn(t, 251, profile.IDLambda128k)
	for j := range p.key {
		p.key[j] = -1
	}
	slots := p.cipher.Slots()
	model := Model{Weights: make([]float64, slots), Bias: make([]float64, slots)}
	x := make([]float64, slots)
	for s := range x {
		if s%2 == 0 {
			model.Weights[s], model.Bias[s], x[s] = 255.5, -0.5, -inputBound
		} else {
			model.Bias[s] = 256
		}
	}
	if srv, err := NewServer("127.0.0.1:0", ServerConfig{Model: model}); !errors.Is(err, ErrModelHeadroom) {
		if srv != nil {
			srv.Close()
		}
		t.Fatalf("NewServer err = %v, want ErrModelHeadroom", err)
	}
	encKey := p.encKey(t)
	block, err := p.cipher.TranscipherAffineWith(nil, p.ev, p.rlk, encKey, p.nonce, 1, p.mask(t, 1, x), model.Weights, model.Bias)
	if err != nil {
		t.Fatal(err)
	}
	worst := func() float64 {
		w := 0.0
		for s, v := range p.decrypt(block) {
			w = math.Max(w, math.Abs(v-(model.Weights[s]*x[s]+model.Bias[s])))
		}
		return w
	}
	atOne := worst()
	if err := block.DropTo(0); err != nil {
		t.Fatal(err)
	}
	atZero := worst()
	t.Logf("worst |error| %.3g at level 1, %.3g at level 0", atOne, atZero)
	if atOne > 1e-6 || atZero < 1 {
		t.Errorf("worst |error| %.3g at level 1 and %.3g at level 0, want the level-0 block wrapped", atOne, atZero)
	}
}
