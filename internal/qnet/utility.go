package qnet

import (
	"fmt"
	"math"
)

// WernerZeroSKF is the largest Werner parameter at which the secret key
// fraction (Eq. 4) is still zero; above it the SKF is strictly positive.
// The paper reports 0.779944 (obtained graphically); it is the solution of
// h2((1−w)/2) = 1/2.
const WernerZeroSKF = 0.7799442481925152

// BinaryEntropy returns h2(p) = −p·log2(p) − (1−p)·log2(1−p), with the
// conventional limits h2(0)=h2(1)=0. Arguments outside [0,1] return NaN.
func BinaryEntropy(p float64) float64 {
	if p < 0 || p > 1 {
		return math.NaN()
	}
	if p == 0 || p == 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// SecretKeyFraction computes F_skf(w) of Eq. (4):
//
//	F_skf(w) = max(0, 1 + (1+w)·log2((1+w)/2) + (1−w)·log2((1−w)/2)),
//
// equivalently max(0, 1 − 2·h2((1−w)/2)): the BB84/BBM92 asymptotic key
// fraction of a Werner pair with QBER (1−w)/2. It is 0 for w ≤ WernerZeroSKF
// and increases monotonically to 1 at w=1.
func SecretKeyFraction(w float64) float64 {
	if w <= 0 {
		return 0
	}
	if w >= 1 {
		return 1
	}
	v := 1 - 2*BinaryEntropy((1-w)/2)
	if v < 0 {
		return 0
	}
	return v
}

// QBER returns the quantum bit error rate (1−w)/2 of a Werner pair.
func QBER(w float64) float64 { return (1 - w) / 2 }

// Utility computes the QKD network utility of Eq. (6):
//
//	U_qkd = Π_n φ_n · F_skf(̟_n)
//
// for the rate allocation phi and link Werner parameters w. The product is
// zero when any route's end-to-end Werner parameter falls at or below the
// SKF threshold.
func (n *Network) Utility(phi, w []float64) (float64, error) {
	if len(phi) != len(n.routes) {
		return 0, fmt.Errorf("qnet: %d rates for %d routes", len(phi), len(n.routes))
	}
	u := 1.0
	for r := range n.routes {
		wr, err := n.EndToEndWerner(r, w)
		if err != nil {
			return 0, err
		}
		u *= phi[r] * SecretKeyFraction(wr)
	}
	return u, nil
}
