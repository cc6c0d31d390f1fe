//go:build race

package ckks

// raceEnabled reports a -race build. The race detector turns off the
// compiler's fusion of append(s, make([]T, n)...) into one growth, so
// slices.Grow — and every frame or key encode that sizes its buffer with
// it — allocates twice where a normal build allocates once.
const raceEnabled = true
