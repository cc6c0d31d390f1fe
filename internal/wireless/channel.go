// Package wireless models the uplink of the QuHE system (§III-D): 3GPP-style
// large-scale path loss, Rayleigh small-scale fading, Shannon-capacity
// transmission rates under FDMA, and the delay/energy cost formulas
// (Eqs. 10–12).
package wireless

import (
	"math"
	"math/rand"
	"sync"
)

// DefaultNoisePSDWHz is the thermal noise power spectral density used when a
// ChannelModel is built with a non-positive value: −174 dBm/Hz in watts/Hz.
const DefaultNoisePSDWHz = 3.9810717055349565e-21 // 10^(-174/10) mW → W

// PathLossDB returns the large-scale fading used in the paper's evaluation:
// 128.1 + 37.6·log10(d) dB with d in kilometres (the 3GPP UMa model).
// Distances are floored at one metre to keep the logarithm finite.
func PathLossDB(dKm float64) float64 {
	if dKm < 1e-3 {
		dKm = 1e-3
	}
	return 128.1 + 37.6*math.Log10(dKm)
}

// DBToLinear converts a decibel quantity to linear scale.
func DBToLinear(db float64) float64 { return math.Pow(10, db/10) }

// Fading selects the small-scale fading distribution of a ChannelModel.
type Fading int

const (
	// FadingNone applies pure path loss.
	FadingNone Fading = iota + 1
	// FadingRayleigh multiplies the path-loss gain by an Exp(1)-distributed
	// power coefficient |h|², h ~ CN(0,1) — the paper's small-scale model.
	FadingRayleigh
)

// ChannelModel samples channel gains between clients and the server.
// It is safe for concurrent use.
type ChannelModel struct {
	noisePSD float64
	fading   Fading

	mu  sync.Mutex
	rng *rand.Rand
}

// NewChannelModel builds a model with the given noise PSD (W/Hz; ≤0 selects
// DefaultNoisePSDWHz), fading type and RNG seed (0 selects a fixed default
// seed, keeping simulations reproducible).
func NewChannelModel(noisePSD float64, fading Fading, seed int64) *ChannelModel {
	if noisePSD <= 0 {
		noisePSD = DefaultNoisePSDWHz
	}
	if fading != FadingRayleigh {
		fading = FadingNone
	}
	if seed == 0 {
		seed = 1
	}
	return &ChannelModel{noisePSD: noisePSD, fading: fading, rng: rand.New(rand.NewSource(seed))}
}

// SampleGain draws the linear power gain g_n for a client at distance dKm:
// path loss, times an Exp(1) Rayleigh power coefficient when enabled.
func (m *ChannelModel) SampleGain(dKm float64) float64 {
	g := DBToLinear(-PathLossDB(dKm))
	if m.fading == FadingRayleigh {
		m.mu.Lock()
		h2 := m.rng.ExpFloat64()
		m.mu.Unlock()
		g *= h2
	}
	return g
}

// SampleDiskDistanceKm draws a client-server distance (in km) uniform over a
// disk of the given radius in metres, the paper's circular topology of
// radius 1000 m. Distances below 10 m are redrawn as 10 m to avoid the
// near-field singularity of the path-loss model.
func (m *ChannelModel) SampleDiskDistanceKm(radiusM float64) float64 {
	m.mu.Lock()
	u := m.rng.Float64()
	m.mu.Unlock()
	d := radiusM * math.Sqrt(u)
	if d < 10 {
		d = 10
	}
	return d / 1000
}

// ShannonRate returns the uplink rate of Eq. (10):
//
//	r = b·log2(1 + p·g/(N0·b))   [bits/s]
//
// It is 0 when bandwidth or power is non-positive. The rate is jointly
// concave in (b, p), the property Stage 3's convexity argument relies on.
func ShannonRate(bHz, pW, gain, noisePSD float64) float64 {
	if bHz <= 0 || pW <= 0 || gain <= 0 || noisePSD <= 0 {
		return 0
	}
	return bHz * math.Log2(1+pW*gain/(noisePSD*bHz))
}

// TxDelay returns Eq. (11): bits/rate, or +Inf at zero rate.
func TxDelay(bits, rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return bits / rate
}

// TxEnergy returns Eq. (12): transmit power times transmission delay.
func TxEnergy(pW, delay float64) float64 { return pW * delay }
