package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"quhe/internal/edge"
	"quhe/internal/he/profile"
)

// The mixed-security workload's size: one client per registered profile.
const (
	profileMixBlocks            = 8
	profileMixSlots             = 8
	profileMixWorkers           = 2
	profileMixCalibrationRounds = 2
)

// ProfileMixStat reports one profile's share of the mixed workload.
type ProfileMixStat struct {
	Profile string  `json:"profile"`
	Lambda  float64 `json:"lambda"`
	MSL     float64 `json:"msl"`
	Slots   int     `json:"slots"`
	// Served and Errors count the profile's blocks.
	Served int64 `json:"served"`
	Errors int64 `json:"errors"`
	// MeanMs / P50Ms / MinMs summarize client-observed per-block latency.
	MeanMs float64 `json:"latency_ms_mean"`
	P50Ms  float64 `json:"latency_ms_p50"`
	MinMs  float64 `json:"latency_ms_min"`
	// CoeffMs is the per-block latency the planner and the replies price
	// an affine block at (profile.BlockCycles(0) at the reference clock);
	// CalibratedMs is Calibrate's best-of-rounds host measurement of that
	// block, shown beside it.
	CoeffMs      float64 `json:"coeff_ms"`
	CalibratedMs float64 `json:"calibrated_ms"`
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
// every registered profile compute side by side on one edge server, each
// on its own per-profile evaluator pool and independently keyed CKKS
// context. Each profile's block is measured with Calibrate first, so the
// run also shows whether the cost coefficients the control plane plans
// with track the measured per-op latency. Results are verified against
// the model on every block.
func ProfileMix() (ProfileMixResult, error) {
	var res ProfileMixResult

	reg := profile.Default()
	ids := reg.IDs()
	calibrated := make([]time.Duration, len(ids))
	for i, id := range ids {
		p, _ := reg.Get(id)
		d, err := p.Calibrate(edge.KeyLen, profileMixCalibrationRounds)
		if err != nil {
			return res, fmt.Errorf("profilemix: calibrate %s: %w", id, err)
		}
		calibrated[i] = d
	}

	model := edge.Model{Weights: []float64{0.5}, Bias: []float64{0.1}}
	srv, err := edge.NewServer("127.0.0.1:0", edge.ServerConfig{
		Model:   model,
		Workers: profileMixWorkers,
	})
	if err != nil {
		return res, err
	}
	defer srv.Close()

	data := make([]float64, profileMixSlots)
	for i := range data {
		data[i] = 0.25
	}
	want := model.Weights[0]*data[0] + model.Bias[0]

	res.CoeffWithin2x = true
	for i, id := range ids {
		p, _ := reg.Get(id)
		stat := ProfileMixStat{
			Profile:      id,
			Lambda:       p.Lambda,
			MSL:          p.MSL(),
			Slots:        p.Slots(),
			CoeffMs:      1e3 * p.BlockCycles(0) / profile.RefHz,
			CalibratedMs: float64(calibrated[i]) / float64(time.Millisecond),
		}
		var lats []float64
		c, err := edge.DialWith(srv.Addr(), "mix-"+id, []byte("mix-"+id), 300, edge.DialConfig{Profile: id})
		if err != nil {
			return res, fmt.Errorf("profilemix: dial %s: %w", id, err)
		}
		for blk := 0; blk < profileMixBlocks; blk++ {
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
		var sum float64
		for _, l := range lats {
			sum += l
		}
		if len(lats) > 0 {
			sort.Float64s(lats)
			stat.MeanMs = sum / float64(len(lats))
			stat.P50Ms = lats[len(lats)/2]
			stat.MinMs = lats[0]
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
