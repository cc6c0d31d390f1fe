//go:build !race

package edge

const raceEnabled = false
