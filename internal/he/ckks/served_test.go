package ckks_test

import (
	"testing"

	"quhe/internal/he/ckks"
	"quhe/internal/he/profile"
	"quhe/internal/transcipher"
)

// TestServedFixturesMatchProfiles holds the internal tests' served-shape
// fixtures to what the registry serves: the transcipher's level count,
// and the same profiles on the same parameters.
func TestServedFixturesMatchProfiles(t *testing.T) {
	if ckks.TranscipherLevels != transcipher.Levels {
		t.Errorf("fixtures leave a block %d levels below the top, the transcipher %d",
			ckks.TranscipherLevels, transcipher.Levels)
	}
	reg := profile.Default()
	shapes := ckks.ServedProfileLogN()
	if len(shapes) != len(reg.IDs()) {
		t.Errorf("fixtures name %d profiles, the registry %d", len(shapes), len(reg.IDs()))
	}
	for _, id := range reg.IDs() {
		p, _ := reg.Get(id)
		if logN, ok := shapes[id]; !ok || logN != p.Params.LogN {
			t.Errorf("%s: fixture LogN %d (present %v), registry %d", id, logN, ok, p.Params.LogN)
		}
		if got := ckks.ServedParams(t, p.Params.LogN); got != p.Params {
			t.Errorf("%s: fixture params %+v, registry %+v", id, got, p.Params)
		}
	}
}
