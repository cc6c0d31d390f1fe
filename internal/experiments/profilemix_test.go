package experiments

import "testing"

// TestProfileMixServesAllLevels runs the mixed-security workload at
// reduced size: every profile serves correct results side by side, and
// measured latency rises with λ. A coefficient outside 2x of measured
// latency is only logged — timing on a shared host is too noisy to gate —
// and CoeffMs here is the value ProfileMix just calibrated on this host,
// not the modeled constant an uncalibrated server prices blocks with.
func TestProfileMixServesAllLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("serving-plane experiment")
	}
	res, err := ProfileMix(ProfileMixOptions{Blocks: 4})
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
		if p.Served != 4 {
			t.Errorf("%s: served %d, want 4", p.Profile, p.Served)
		}
		if p.CoeffMs <= 0 || p.MeanMs <= 0 {
			t.Errorf("%s: empty latency stats %+v", p.Profile, p)
		}
	}
	// Higher λ must cost more: the measured mean latency is increasing
	// across the ascending-λ result order.
	for i := 1; i < len(res.Profiles); i++ {
		if res.Profiles[i].MeanMs <= res.Profiles[i-1].MeanMs {
			t.Errorf("latency not increasing with λ: %s %.2fms after %s %.2fms",
				res.Profiles[i].Profile, res.Profiles[i].MeanMs,
				res.Profiles[i-1].Profile, res.Profiles[i-1].MeanMs)
		}
	}
	if !res.CoeffWithin2x {
		t.Logf("coefficients out of the 2x band on this host: %+v", res.Profiles)
	}
}
