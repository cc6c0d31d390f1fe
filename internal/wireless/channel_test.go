package wireless

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestPathLossDB(t *testing.T) {
	// At 1 km the model gives exactly 128.1 dB.
	if got := PathLossDB(1); math.Abs(got-128.1) > 1e-12 {
		t.Errorf("PathLossDB(1km) = %v, want 128.1", got)
	}
	// Each decade adds 37.6 dB.
	if got := PathLossDB(10) - PathLossDB(1); math.Abs(got-37.6) > 1e-9 {
		t.Errorf("decade slope = %v, want 37.6", got)
	}
	// Tiny distances are floored, not −Inf.
	if got := PathLossDB(0); math.IsInf(got, -1) || math.IsNaN(got) {
		t.Errorf("PathLossDB(0) = %v", got)
	}
}

func TestUnitConversions(t *testing.T) {
	if got := DBToLinear(30); math.Abs(got-1000) > 1e-9 {
		t.Errorf("DBToLinear(30) = %v, want 1000", got)
	}
	// −174 dBm/Hz: 10^(−174/10) mW/Hz, in W/Hz.
	if want := math.Pow(10, -174.0/10) / 1000; math.Abs(DefaultNoisePSDWHz-want) > 1e-30 {
		t.Errorf("DefaultNoisePSDWHz = %v, want %v", DefaultNoisePSDWHz, want)
	}
}

func TestShannonRateBasics(t *testing.T) {
	// SNR = p·g/(N0·b) = 1 → rate = b·log2(2) = b.
	b := 1e6
	n0 := 1e-15
	p := 1.0
	g := n0 * b / p
	if got := ShannonRate(b, p, g, n0); math.Abs(got-b) > 1e-6 {
		t.Errorf("ShannonRate = %v, want %v", got, b)
	}
	if ShannonRate(0, 1, 1, 1) != 0 || ShannonRate(1, 0, 1, 1) != 0 {
		t.Error("zero bandwidth/power should give zero rate")
	}
}

func TestShannonRateMonotone(t *testing.T) {
	g := DBToLinear(-128.1)
	n0 := DefaultNoisePSDWHz
	r1 := ShannonRate(1e6, 0.1, g, n0)
	r2 := ShannonRate(1e6, 0.2, g, n0)
	if r2 <= r1 {
		t.Errorf("rate not increasing in power: %v vs %v", r1, r2)
	}
	r3 := ShannonRate(2e6, 0.1, g, n0)
	if r3 <= r1 {
		t.Errorf("rate not increasing in bandwidth: %v vs %v", r1, r3)
	}
}

// Property: the rate is jointly concave in (b, p) — midpoint concavity on
// random pairs. Stage 3's convexity argument depends on this.
func TestShannonRateJointlyConcave(t *testing.T) {
	g := DBToLinear(-128.1)
	n0 := DefaultNoisePSDWHz
	f := func(rawB1, rawP1, rawB2, rawP2 float64) bool {
		b1 := 1e4 + math.Abs(math.Mod(rawB1, 1))*1e7
		b2 := 1e4 + math.Abs(math.Mod(rawB2, 1))*1e7
		p1 := 1e-3 + math.Abs(math.Mod(rawP1, 1))
		p2 := 1e-3 + math.Abs(math.Mod(rawP2, 1))
		mid := ShannonRate((b1+b2)/2, (p1+p2)/2, g, n0)
		avg := (ShannonRate(b1, p1, g, n0) + ShannonRate(b2, p2, g, n0)) / 2
		return mid >= avg-1e-6*math.Abs(avg)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTxDelayEnergy(t *testing.T) {
	if got := TxDelay(1e9, 1e6); got != 1000 {
		t.Errorf("TxDelay = %v, want 1000", got)
	}
	if !math.IsInf(TxDelay(1, 0), 1) {
		t.Error("zero rate should give infinite delay")
	}
	if got := TxEnergy(0.2, 1000); got != 200 {
		t.Errorf("TxEnergy = %v, want 200", got)
	}
}

func TestChannelModelGainNoFading(t *testing.T) {
	m := NewChannelModel(0, FadingNone, 0)
	want := DBToLinear(-PathLossDB(1))
	if got := m.SampleGain(1); math.Abs(got-want) > 1e-18 {
		t.Errorf("SampleGain = %v, want %v", got, want)
	}
	if m.noisePSD != DefaultNoisePSDWHz {
		t.Errorf("noise PSD = %v, want default", m.noisePSD)
	}
}

func TestChannelModelRayleighMean(t *testing.T) {
	m := NewChannelModel(0, FadingRayleigh, 99)
	base := DBToLinear(-PathLossDB(1))
	var sum float64
	const samples = 20000
	for i := 0; i < samples; i++ {
		sum += m.SampleGain(1)
	}
	mean := sum / samples
	// E|h|² = 1 → mean gain = path-loss gain, within Monte-Carlo error.
	if math.Abs(mean-base)/base > 0.05 {
		t.Errorf("Rayleigh mean gain = %v, want ≈ %v", mean, base)
	}
}

func TestSampleDiskDistance(t *testing.T) {
	m := NewChannelModel(0, FadingRayleigh, 5)
	var maxD, sum float64
	const samples = 5000
	for i := 0; i < samples; i++ {
		d := m.SampleDiskDistanceKm(1000)
		if d <= 0 || d > 1.0 {
			t.Fatalf("distance %v outside (0, 1] km", d)
		}
		if d > maxD {
			maxD = d
		}
		sum += d
	}
	// Uniform over a disk: E[r] = 2R/3 ≈ 0.667 km.
	if mean := sum / samples; math.Abs(mean-2.0/3) > 0.02 {
		t.Errorf("mean distance = %v, want ≈ 0.667", mean)
	}
	if maxD < 0.9 {
		t.Errorf("max distance = %v, expected close to 1.0", maxD)
	}
}

func TestChannelModelConcurrentUse(t *testing.T) {
	m := NewChannelModel(0, FadingRayleigh, 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if g := m.SampleGain(0.5); g < 0 || math.IsNaN(g) {
					t.Errorf("bad gain %v", g)
					return
				}
			}
		}()
	}
	wg.Wait()
}
