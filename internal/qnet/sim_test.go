package qnet

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// errInfeasibleAllocation indicates rate demands exceeding link capacity.
var errInfeasibleAllocation = errors.New("qnet: allocation exceeds link capacity")

// checkAllocation verifies that loads fit capacities for the given Werner
// point, wrapping errInfeasibleAllocation with the first violating link.
func checkAllocation(n *Network, phi, w []float64) error {
	loads, err := n.LinkLoads(phi)
	if err != nil {
		return err
	}
	if len(w) != len(n.links) {
		return fmt.Errorf("qnet: %d werner values for %d links", len(w), len(n.links))
	}
	for l, load := range loads {
		capacity := LinkCapacity(n.links[l].Beta, w[l])
		// Small relative slack absorbs floating-point rounding when the
		// allocation sits exactly at the Eq. (18) capacity point.
		if load > capacity*(1+1e-9)+1e-12 {
			return fmt.Errorf("%w: link %d load %.3f > capacity %.3f", errInfeasibleAllocation, l+1, load, capacity)
		}
	}
	return nil
}

func TestLinkCapacity(t *testing.T) {
	if got := LinkCapacity(100, 0.9); math.Abs(got-10) > 1e-12 {
		t.Errorf("LinkCapacity(100, 0.9) = %v, want 10", got)
	}
	if got := LinkCapacity(100, 1); got != 0 {
		t.Errorf("LinkCapacity at w=1 = %v, want 0", got)
	}
	if got := LinkCapacity(100, 1.5); got != 0 {
		t.Errorf("LinkCapacity clamps negative: got %v", got)
	}
}

// TestSimLinkRatesMatchAnalytic: empirical per-link generation rates must
// match β_l(1−w_l) within Poisson sampling error.
func TestSimLinkRatesMatchAnalytic(t *testing.T) {
	n := SURFnet()
	phi := []float64{1, 1, 1, 1, 1, 1}
	w, err := n.WernerFromRates(phi)
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.SimulateEntanglementDistribution(phi, w, SimConfig{Duration: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < n.NumLinks(); l++ {
		want := LinkCapacity(n.Link(l).Beta, w[l])
		if want == 0 {
			if res.LinkRate[l] != 0 {
				t.Errorf("link %d rate = %v, want 0", l+1, res.LinkRate[l])
			}
			continue
		}
		// 5σ Poisson tolerance.
		sigma := math.Sqrt(want / 400)
		if math.Abs(res.LinkRate[l]-want) > 5*sigma+0.05 {
			t.Errorf("link %d rate = %v, analytic %v", l+1, res.LinkRate[l], want)
		}
	}
}

// TestSimDeliveryFeasible: with loads at half of capacity the delivery ratio
// per route approaches 1, validating the analytic feasibility model the
// optimizer relies on.
func TestSimDeliveryFeasible(t *testing.T) {
	n := SURFnet()
	phi := []float64{1, 1, 1, 1, 1, 1}
	// Werner point with 50% headroom: w chosen so capacity = 2×load.
	loads, err := n.LinkLoads(phi)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, n.NumLinks())
	for l := range w {
		w[l] = 1 - 2*loads[l]/n.Link(l).Beta
		if loads[l] == 0 {
			w[l] = 0.999
		}
	}
	res, err := n.SimulateEntanglementDistribution(phi, w, SimConfig{Duration: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n.NumRoutes(); r++ {
		if res.RouteRequested[r] == 0 {
			t.Fatalf("route %d issued no requests", r+1)
		}
		ratio := float64(res.RouteDelivered[r]) / float64(res.RouteRequested[r])
		if ratio < 0.9 {
			t.Errorf("route %d delivery ratio = %v, want ≥ 0.9", r+1, ratio)
		}
	}
}

// TestSimDeliveryBottleneck: loading one link beyond capacity caps delivery.
func TestSimDeliveryBottleneck(t *testing.T) {
	n := SURFnet()
	// Route 4 uses links 15 and 18 (β=80.54, 46.82). Push 30 pairs/s with
	// w chosen so capacity on link 18 is only ~15 pairs/s.
	phi := []float64{0.5, 0.5, 0.5, 30, 0.5, 0.5}
	w := make([]float64, n.NumLinks())
	for l := range w {
		w[l] = 0.9
	}
	// capacity_18 = 46.82·0.1 ≈ 4.7 << 30.
	res, err := n.SimulateEntanglementDistribution(phi, w, SimConfig{Duration: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.RouteDelivered[3]) / float64(res.RouteRequested[3])
	if ratio > 0.5 {
		t.Errorf("bottlenecked route delivered ratio %v, want < 0.5", ratio)
	}
	if err := checkAllocation(n, phi, w); !errors.Is(err, errInfeasibleAllocation) {
		t.Errorf("checkAllocation err = %v, want errInfeasibleAllocation", err)
	}
}

// TestSimQBERMatchesWerner: the empirical QBER of delivered pairs must match
// (1−̟)/2 and the empirical SKF must approach SecretKeyFraction(̟).
func TestSimQBERMatchesWerner(t *testing.T) {
	n := SURFnet()
	phi := []float64{2, 2, 2, 2, 2, 2}
	w := make([]float64, n.NumLinks())
	for l := range w {
		w[l] = 0.99
	}
	res, err := n.SimulateEntanglementDistribution(phi, w, SimConfig{Duration: 500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n.NumRoutes(); r++ {
		ew, err := n.EndToEndWerner(r, w)
		if err != nil {
			t.Fatal(err)
		}
		wantQBER := QBER(ew)
		if res.RouteDelivered[r] < 100 {
			t.Fatalf("route %d delivered only %d pairs", r+1, res.RouteDelivered[r])
		}
		sigma := math.Sqrt(wantQBER * (1 - wantQBER) / float64(res.RouteDelivered[r]))
		if math.Abs(res.RouteQBER[r]-wantQBER) > 5*sigma+0.01 {
			t.Errorf("route %d QBER = %v, want %v", r+1, res.RouteQBER[r], wantQBER)
		}
		wantSKF := SecretKeyFraction(ew)
		// SKF = 1−2h2(e) is steep in e near small QBER; propagate the QBER
		// tolerance through |d SKF/d e| = 2·log2((1−e)/e).
		slope := 2 * math.Log2((1-wantQBER)/wantQBER)
		tolSKF := slope * (5*sigma + 0.01)
		if math.Abs(res.RouteSKF[r]-wantSKF) > tolSKF {
			t.Errorf("route %d SKF = %v, want %v ± %v", r+1, res.RouteSKF[r], wantSKF, tolSKF)
		}
	}
}

func TestSimValidation(t *testing.T) {
	n := SURFnet()
	w := make([]float64, 18)
	for i := range w {
		w[i] = 0.9
	}
	if _, err := n.SimulateEntanglementDistribution([]float64{1}, w, SimConfig{}); err == nil {
		t.Error("short phi accepted")
	}
	if _, err := n.SimulateEntanglementDistribution(make([]float64, 6), w[:2], SimConfig{}); err == nil {
		t.Error("short werner accepted")
	}
	bad := append([]float64(nil), w...)
	bad[0] = 0
	if _, err := n.SimulateEntanglementDistribution(make([]float64, 6), bad, SimConfig{}); err == nil {
		t.Error("zero werner accepted")
	}
	bad[0] = 1.2
	if _, err := n.SimulateEntanglementDistribution(make([]float64, 6), bad, SimConfig{}); err == nil {
		t.Error("werner > 1 accepted")
	}
}

func TestSimDeterministicForSeed(t *testing.T) {
	n := SURFnet()
	phi := []float64{1, 1, 1, 1, 1, 1}
	w := make([]float64, 18)
	for i := range w {
		w[i] = 0.95
	}
	a, err := n.SimulateEntanglementDistribution(phi, w, SimConfig{Duration: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.SimulateEntanglementDistribution(phi, w, SimConfig{Duration: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for l := range a.LinkGenerated {
		if a.LinkGenerated[l] != b.LinkGenerated[l] {
			t.Fatalf("run not deterministic: link %d generated %d vs %d", l+1, a.LinkGenerated[l], b.LinkGenerated[l])
		}
	}
}

func TestCheckAllocationOK(t *testing.T) {
	n := SURFnet()
	phi := []float64{1, 1, 1, 1, 1, 1}
	w, err := n.WernerFromRates(phi)
	if err != nil {
		t.Fatal(err)
	}
	// At the Eq. (18) Werner point, load == capacity exactly: feasible.
	if err := checkAllocation(n, phi, w); err != nil {
		t.Errorf("checkAllocation: %v", err)
	}
	if err := checkAllocation(n, phi[:2], w); err == nil {
		t.Error("short phi accepted")
	}
	if err := checkAllocation(n, phi, w[:2]); err == nil {
		t.Error("short werner accepted")
	}
}
