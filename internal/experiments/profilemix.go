package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"quhe/internal/edge"
	"quhe/internal/he/profile"
)

// ProfileMixOptions sizes the mixed-security-workload experiment.
type ProfileMixOptions struct {
	// Profiles selects the security profiles to mix (default: every
	// member of the built-in registry).
	Profiles []string
	// ClientsPerProfile is the concurrent session count per profile.
	// Default 1.
	ClientsPerProfile int
	// Blocks is the compute count per client. Default 8.
	Blocks int
	// Slots is the payload size per block. Default 8.
	Slots int
	// Workers sizes each per-profile evaluator pool. Default 2.
	Workers int
	// CalibrationRounds is how many measurement rounds Calibrate runs per
	// profile before serving. Default 2.
	CalibrationRounds int
}

func (o ProfileMixOptions) withDefaults() ProfileMixOptions {
	if len(o.Profiles) == 0 {
		o.Profiles = profile.Default().IDs()
	}
	if o.ClientsPerProfile <= 0 {
		o.ClientsPerProfile = 1
	}
	if o.Blocks <= 0 {
		o.Blocks = 8
	}
	if o.Slots <= 0 {
		o.Slots = 8
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.CalibrationRounds <= 0 {
		o.CalibrationRounds = 2
	}
	return o
}

// ProfileMixStat reports one profile's share of the mixed workload.
type ProfileMixStat struct {
	Profile string  `json:"profile"`
	Lambda  float64 `json:"lambda"`
	MSL     float64 `json:"msl"`
	Slots   int     `json:"slots"`
	// Served and Errors count the profile's blocks across its clients.
	Served int64 `json:"served"`
	Errors int64 `json:"errors"`
	// MeanMs / P50Ms summarize client-observed per-block latency.
	MeanMs float64 `json:"latency_ms_mean"`
	P50Ms  float64 `json:"latency_ms_p50"`
	// CoeffMs is the per-block latency implied by the cost coefficient
	// the planner and the replies price an affine block with
	// (profile.BlockCycles(0) at the reference clock, calibrated before
	// the run); ModeledMs is the uncalibrated a·N·log2(N) model.
	CoeffMs   float64 `json:"coeff_ms"`
	ModeledMs float64 `json:"modeled_ms"`
	// CoeffOverMeasured is CoeffMs / MeanMs — the acceptance band is
	// [0.5, 2].
	CoeffOverMeasured float64 `json:"coeff_over_measured"`
	// Utility scores the profile's share with the run's utility-cost
	// terms (α_msl·f_msl(λ)·served − α_T·Σlatency).
	Utility float64 `json:"utility"`
}

// ProfileMixResult is the mixed-λ serving comparison.
type ProfileMixResult struct {
	Profiles []ProfileMixStat `json:"profiles"`
	// CoeffWithin2x reports whether every profile's planning coefficient
	// landed within 2x of its measured per-op latency.
	CoeffWithin2x bool `json:"coeff_within_2x"`
	// TotalUtility sums the per-profile utilities — the
	// mixed-security-workload figure a single-λ runtime cannot produce.
	TotalUtility float64 `json:"total_utility"`
}

// ProfileMix runs a heterogeneous-security serving workload: sessions on
// every selected profile compute side by side on one edge server, each on
// its own per-profile evaluator pool and independently keyed CKKS
// context. Each profile is calibrated first, so the run also verifies
// that the cost coefficients the control plane would plan with track the
// measured per-op latency. Results are verified against the model on
// every block.
func ProfileMix(opts ProfileMixOptions) (ProfileMixResult, error) {
	opts = opts.withDefaults()
	var res ProfileMixResult

	reg := profile.Default()
	for _, id := range opts.Profiles {
		p, ok := reg.Get(id)
		if !ok {
			return res, fmt.Errorf("profilemix: unknown profile %q", id)
		}
		if _, err := p.Calibrate(edge.KeyLen, opts.CalibrationRounds); err != nil {
			return res, fmt.Errorf("profilemix: calibrate %s: %w", id, err)
		}
	}

	model := edge.Model{Weights: []float64{0.5}, Bias: []float64{0.1}}
	srv, err := edge.NewServer("127.0.0.1:0", edge.ServerConfig{
		Model:   model,
		Workers: opts.Workers,
	})
	if err != nil {
		return res, err
	}
	defer srv.Close()

	data := make([]float64, opts.Slots)
	for i := range data {
		data[i] = 0.25
	}
	want := model.Weights[0]*data[0] + model.Bias[0]

	res.CoeffWithin2x = true
	for _, id := range opts.Profiles {
		p, _ := reg.Get(id)
		stat := ProfileMixStat{
			Profile:   id,
			Lambda:    p.Lambda,
			MSL:       p.MSL(),
			Slots:     p.Slots(),
			CoeffMs:   1e3 * p.BlockCycles(0) / profile.RefHz,
			ModeledMs: 1e3 * p.ModeledCyclesPerBlock() / profile.RefHz,
		}
		var lats []float64
		for ci := 0; ci < opts.ClientsPerProfile; ci++ {
			c, err := edge.DialWith(srv.Addr(), fmt.Sprintf("mix-%s-%d", id, ci),
				[]byte("mix-"+id), int64(300+ci), edge.DialConfig{Profile: id})
			if err != nil {
				return res, fmt.Errorf("profilemix: dial %s: %w", id, err)
			}
			for blk := 0; blk < opts.Blocks; blk++ {
				t0 := time.Now()
				out, err := c.Compute(uint32(blk), data)
				lat := time.Since(t0)
				if err != nil || math.Abs(out[0]-want) > 0.05 {
					stat.Errors++
					continue
				}
				stat.Served++
				lats = append(lats, float64(lat)/float64(time.Millisecond))
			}
			c.Close()
		}
		var sum float64
		for _, l := range lats {
			sum += l
		}
		if len(lats) > 0 {
			sort.Float64s(lats)
			stat.MeanMs = sum / float64(len(lats))
			stat.P50Ms = lats[len(lats)/2]
			stat.CoeffOverMeasured = stat.CoeffMs / stat.MeanMs
		}
		if stat.CoeffOverMeasured < 0.5 || stat.CoeffOverMeasured > 2 {
			res.CoeffWithin2x = false
		}
		stat.Utility = scenarioUtility(stat.MSL, stat.Served, sum/1e3)
		res.TotalUtility += stat.Utility
		res.Profiles = append(res.Profiles, stat)
	}
	return res, nil
}
