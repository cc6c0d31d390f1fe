package qnet

import (
	"math"
	"testing"
)

func TestSURFnetShape(t *testing.T) {
	n := SURFnet()
	if n.NumLinks() != 18 {
		t.Errorf("NumLinks = %d, want 18", n.NumLinks())
	}
	if n.NumRoutes() != 6 {
		t.Errorf("NumRoutes = %d, want 6", n.NumRoutes())
	}
}

func TestSURFnetTableIV(t *testing.T) {
	n := SURFnet()
	// Spot-check entries of Table IV.
	tests := []struct {
		id     int
		length float64
		beta   float64
	}{
		{1, 30.6, 89.84},
		{6, 78.7, 40.76},
		{9, 25.7, 99.02},
		{10, 24.4, 100.98},
		{18, 70.0, 46.82},
	}
	for _, tt := range tests {
		l := n.Link(tt.id - 1)
		if l.ID != tt.id || l.LengthKm != tt.length || l.Beta != tt.beta {
			t.Errorf("link %d = %+v, want length %v beta %v", tt.id, l, tt.length, tt.beta)
		}
	}
}

func TestSURFnetTableIII(t *testing.T) {
	n := SURFnet()
	wantLinks := [][]int{
		{17, 2, 1},
		{17, 3, 4, 5},
		{16, 4, 5, 11, 10},
		{15, 18},
		{15, 14, 13, 12, 9},
		{15, 14, 13, 12, 8, 7},
	}
	wantDest := []string{"Delft", "Zwolle", "Apeldoorn", "Rotterdam", "Arnherm", "Enschede"}
	for r := 0; r < n.NumRoutes(); r++ {
		rt := n.Route(r)
		if rt.Source != "Hilversum" {
			t.Errorf("route %d source = %q, want Hilversum", r+1, rt.Source)
		}
		if rt.Dest != wantDest[r] {
			t.Errorf("route %d dest = %q, want %q", r+1, rt.Dest, wantDest[r])
		}
		if len(rt.LinkIDs) != len(wantLinks[r]) {
			t.Fatalf("route %d has %d links, want %d", r+1, len(rt.LinkIDs), len(wantLinks[r]))
		}
		for i, lid := range wantLinks[r] {
			if rt.LinkIDs[i] != lid {
				t.Errorf("route %d link %d = %d, want %d", r+1, i, rt.LinkIDs[i], lid)
			}
		}
	}
}

// TestIncidenceMatrix reads the paper's A matrix through uses: uses[r][l]
// is its entry a_{l+1,r+1}.
func TestIncidenceMatrix(t *testing.T) {
	n := SURFnet()
	if n.NumLinks() != 18 || n.NumRoutes() != 6 {
		t.Fatalf("A is %dx%d, want 18x6", n.NumLinks(), n.NumRoutes())
	}
	for r := 0; r < n.NumRoutes(); r++ {
		// Link 17 serves routes 1 and 2 only.
		if got, want := n.uses[r][16], r < 2; got != want {
			t.Errorf("A[17][%d] = %v, want %v", r+1, got, want)
		}
		// Link 6 is on no route in Table III.
		if n.uses[r][5] {
			t.Errorf("A[6][%d] set, want 0", r+1)
		}
	}
}

func TestLinkLoads(t *testing.T) {
	n := SURFnet()
	phi := []float64{1, 2, 3, 4, 5, 6}
	loads, err := n.LinkLoads(phi)
	if err != nil {
		t.Fatal(err)
	}
	// Link 15 carries routes 4, 5, 6: load 4+5+6 = 15.
	if loads[14] != 15 {
		t.Errorf("load on link 15 = %v, want 15", loads[14])
	}
	// Link 17 carries routes 1, 2: load 3.
	if loads[16] != 3 {
		t.Errorf("load on link 17 = %v, want 3", loads[16])
	}
	// Link 6 carries nothing.
	if loads[5] != 0 {
		t.Errorf("load on link 6 = %v, want 0", loads[5])
	}
	if _, err := n.LinkLoads([]float64{1}); err == nil {
		t.Error("wrong-length phi accepted")
	}
}

func TestWernerFromRates(t *testing.T) {
	n := SURFnet()
	phi := []float64{1, 1, 1, 1, 1, 1}
	w, err := n.WernerFromRates(phi)
	if err != nil {
		t.Fatal(err)
	}
	// Link 15 (β=80.54) carries 3 routes: w = 1 − 3/80.54.
	want := 1 - 3/80.54
	if math.Abs(w[14]-want) > 1e-12 {
		t.Errorf("w[15] = %v, want %v", w[14], want)
	}
	// Unused link 6 keeps w = 1.
	if w[5] != 1 {
		t.Errorf("w[6] = %v, want 1", w[5])
	}
}

func TestFeasibleRates(t *testing.T) {
	n := SURFnet()
	if !n.FeasibleRates([]float64{1, 1, 1, 1, 1, 1}) {
		t.Error("small allocation reported infeasible")
	}
	// Route 4 (links 15, 18): β_18 = 46.82, so φ_4 = 50 exceeds it.
	if n.FeasibleRates([]float64{1, 1, 1, 50, 1, 1}) {
		t.Error("oversized allocation reported feasible")
	}
	// Zero allocation on all routes using a link gives load 0 — infeasible
	// per the strict inequality of (19a).
	if n.FeasibleRates([]float64{0, 0, 0, 0, 0, 0}) {
		t.Error("zero allocation reported feasible")
	}
}

func TestEndToEndWerner(t *testing.T) {
	n := SURFnet()
	w := make([]float64, 18)
	for i := range w {
		w[i] = 0.99
	}
	// Route 1 uses 3 links.
	got, err := n.EndToEndWerner(0, w)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(0.99, 3)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("route 1 werner = %v, want %v", got, want)
	}
	// Route 6 uses 6 links.
	got, err = n.EndToEndWerner(5, w)
	if err != nil {
		t.Fatal(err)
	}
	want = math.Pow(0.99, 6)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("route 6 werner = %v, want %v", got, want)
	}
	if _, err := n.EndToEndWerner(7, w); err == nil {
		t.Error("out-of-range route accepted")
	}
	if _, err := n.EndToEndWerner(0, w[:3]); err == nil {
		t.Error("short werner vector accepted")
	}
}

func TestNewValidation(t *testing.T) {
	link := Link{ID: 1, LengthKm: 1, Beta: 10}
	route := Route{ID: 1, LinkIDs: []int{1}}
	tests := []struct {
		name   string
		links  []Link
		routes []Route
	}{
		{"empty", nil, nil},
		{"bad link id", []Link{{ID: 2, Beta: 1}}, []Route{route}},
		{"bad beta", []Link{{ID: 1, Beta: 0}}, []Route{route}},
		{"negative length", []Link{{ID: 1, Beta: 1, LengthKm: -1}}, []Route{route}},
		{"bad route id", []Link{link}, []Route{{ID: 2, LinkIDs: []int{1}}}},
		{"empty route", []Link{link}, []Route{{ID: 1}}},
		{"unknown link ref", []Link{link}, []Route{{ID: 1, LinkIDs: []int{9}}}},
		{"duplicate link ref", []Link{link}, []Route{{ID: 1, LinkIDs: []int{1, 1}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.links, tt.routes); err == nil {
				t.Error("invalid network accepted")
			}
		})
	}
	if _, err := New([]Link{link}, []Route{route}); err != nil {
		t.Errorf("valid network rejected: %v", err)
	}
}

func TestRouteReturnsCopy(t *testing.T) {
	n := SURFnet()
	rt := n.Route(0)
	rt.LinkIDs[0] = 999
	if n.Route(0).LinkIDs[0] == 999 {
		t.Error("Route exposes internal slice")
	}
}

func TestDeriveBeta(t *testing.T) {
	// Zero-length link: η = 1, β = 3κ/(2T).
	if got := DeriveBeta(0, 0.9, 0.2, 0.01); math.Abs(got-3*0.9/(2*0.01)) > 1e-12 {
		t.Errorf("DeriveBeta(0) = %v", got)
	}
	// Longer links yield smaller β.
	short := DeriveBeta(10, 1, 0.2, 0.01)
	long := DeriveBeta(100, 1, 0.2, 0.01)
	if long >= short {
		t.Errorf("beta did not decay with length: %v >= %v", long, short)
	}
	if DeriveBeta(10, 1, 0.2, 0) != 0 {
		t.Error("zero genTime should produce zero beta")
	}
}
