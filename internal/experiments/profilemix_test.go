package experiments

import (
	"testing"

	"quhe/internal/he/profile"
)

// TestProfileMixServesAllLevels runs the mixed-security workload: every
// profile serves correct results side by side, and measured latency rises
// with λ. The ordering compares each profile's fastest of eight blocks:
// one block preempted on a shared host can lift a mean past the next
// profile's, but not a minimum. A coefficient outside 2x of measured
// latency is only logged — timing on a shared host is too noisy to gate.
// The run's calibration must leave every profile's price where it was.
func TestProfileMixServesAllLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("serving-plane experiment")
	}
	const blocks = profileMixBlocks
	priceMs := map[string]float64{}
	for _, id := range profile.Default().IDs() {
		p, _ := profile.Default().Get(id)
		priceMs[id] = 1e3 * p.BlockCycles(0) / profile.RefHz
	}
	res, err := ProfileMix()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profiles) != 3 {
		t.Fatalf("%d profiles in result, want 3", len(res.Profiles))
	}
	for _, p := range res.Profiles {
		if p.Errors != 0 {
			t.Errorf("%s: %d errors", p.Profile, p.Errors)
		}
		if p.Served != blocks {
			t.Errorf("%s: served %d, want %d", p.Profile, p.Served, blocks)
		}
		if p.CoeffMs <= 0 || p.CalibratedMs <= 0 || p.MeanMs <= 0 || p.MinMs <= 0 {
			t.Errorf("%s: empty latency stats %+v", p.Profile, p)
		}
		if p.CoeffMs != priceMs[p.Profile] {
			t.Errorf("%s: priced at %g ms after calibrating, %g ms before", p.Profile, p.CoeffMs, priceMs[p.Profile])
		}
	}
	// Higher λ must cost more: the fastest block's latency is increasing
	// across the ascending-λ result order.
	for i := 1; i < len(res.Profiles); i++ {
		if res.Profiles[i].MinMs <= res.Profiles[i-1].MinMs {
			t.Errorf("latency not increasing with λ: %s %.2fms after %s %.2fms (fastest of %d)",
				res.Profiles[i].Profile, res.Profiles[i].MinMs,
				res.Profiles[i-1].Profile, res.Profiles[i-1].MinMs, blocks)
		}
	}
	if !res.CoeffWithin2x {
		t.Logf("coefficients out of the 2x band on this host: %+v", res.Profiles)
	}
}
