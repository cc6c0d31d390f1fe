package ckks

// The served-shape fixtures of the internal tests, for the external test
// that holds them to the profile registry (package profile imports ckks).

const TranscipherLevels = transcipherLevels

var ServedParams = servedParams

// ServedProfileLogN maps each servedProfiles ID to its ring degree.
func ServedProfileLogN() map[string]int {
	m := make(map[string]int, len(servedProfiles))
	for _, p := range servedProfiles {
		m[p.id] = p.logN
	}
	return m
}
