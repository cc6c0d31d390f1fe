//go:build race

package edge

// raceEnabled reports a -race build, under which sync.Pool drops items at
// random and allocation counts mean nothing.
const raceEnabled = true
