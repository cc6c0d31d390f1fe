package obs

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refQuantile is the sorted-slice exact-rank reference the histogram is
// tested against: the value at rank ceil(q·n), 1-based.
func refQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// adversarial distributions: heavy tails, point masses, bimodal gaps,
// sub-bucket-width values and near-overflow magnitudes.
func distributions(rng *rand.Rand, n int) map[string][]float64 {
	out := make(map[string][]float64)

	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = rng.Float64() * 100
	}
	out["uniform"] = uniform

	exp := make([]float64, n)
	for i := range exp {
		exp[i] = rng.ExpFloat64() * 5
	}
	out["exponential"] = exp

	pareto := make([]float64, n)
	for i := range pareto {
		pareto[i] = math.Pow(1-rng.Float64(), -1/1.2) // α=1.2 heavy tail
	}
	out["pareto"] = pareto

	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 3.7
	}
	out["constant"] = constant

	bimodal := make([]float64, n)
	for i := range bimodal {
		if i%2 == 0 {
			bimodal[i] = 0.5 + rng.Float64()*0.01
		} else {
			bimodal[i] = 5000 + rng.Float64()*100
		}
	}
	out["bimodal"] = bimodal

	tiny := make([]float64, n)
	for i := range tiny {
		tiny[i] = rng.Float64() * 0.01
	}
	out["tiny"] = tiny

	huge := make([]float64, n)
	for i := range huge {
		huge[i] = 1e5 + rng.Float64()*1e5
	}
	out["huge"] = huge

	return out
}

// TestQuantileVsSortedReference pins the quantile guarantee: for every
// distribution and quantile, the histogram's answer is at least the true
// order statistic and at most 12.5% above it (one sub-bucket of relative
// resolution), except where the value escapes the bucket grid entirely.
func TestQuantileVsSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gridLo, gridHi := math.Ldexp(1, histMinExp), math.Ldexp(1, histMaxExp+1)
	for name, vals := range distributions(rng, 5000) {
		var h Histogram
		for _, v := range vals {
			h.Observe(v)
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		snap := h.Snapshot()
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			want := refQuantile(sorted, q)
			got := snap.Quantile(q)
			if want < gridLo || want >= gridHi {
				continue // off-grid values only promise bucket membership
			}
			if got < want || got > want*(1+1.0/histSubBuckets)+1e-9 {
				t.Errorf("%s q=%g: got %g, reference %g (allowed [%g, %g])",
					name, q, got, want, want, want*(1+1.0/histSubBuckets))
			}
		}
		if snap.Count != int64(len(vals)) {
			t.Errorf("%s: snapshot count %d, want %d", name, snap.Count, len(vals))
		}
	}
}

// TestQuantileExactOnPointMass: every observation identical → every
// quantile returns it exactly (the max cap collapses the bucket bound).
func TestQuantileExactOnPointMass(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(3.7)
	}
	snap := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := snap.Quantile(q); got != 3.7 {
			t.Errorf("q=%g: got %g, want exactly 3.7", q, got)
		}
	}
}

// TestSnapshotMergeAssociativity: (a⊕b)⊕c and a⊕(b⊕c) agree bucket for
// bucket, and both match observing everything into one histogram.
func TestSnapshotMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ha, hb, hc, all Histogram
	for i := 0; i < 3000; i++ {
		v := rng.ExpFloat64() * float64(1+i%97)
		switch i % 3 {
		case 0:
			ha.Observe(v)
		case 1:
			hb.Observe(v)
		default:
			hc.Observe(v)
		}
		all.Observe(v)
	}
	a, b, c := ha.Snapshot(), hb.Snapshot(), hc.Snapshot()
	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	ref := all.Snapshot()
	for _, m := range []HistSnapshot{left, right} {
		if m.Counts != ref.Counts {
			t.Fatalf("merged bucket counts diverge from single-histogram reference")
		}
		if m.Count != ref.Count || m.Max != ref.Max {
			t.Fatalf("merged count/max = %d/%g, want %d/%g", m.Count, m.Max, ref.Count, ref.Max)
		}
		if math.Abs(m.Sum-ref.Sum) > 1e-6*math.Abs(ref.Sum) {
			t.Fatalf("merged sum %g, want %g", m.Sum, ref.Sum)
		}
	}
	if left.Counts != right.Counts {
		t.Fatal("merge is not associative")
	}
	// Merging with the zero snapshot is identity.
	var zero HistSnapshot
	if got := a.Merge(zero); got.Counts != a.Counts || got.Count != a.Count {
		t.Fatal("zero snapshot is not a merge identity")
	}
}

// TestBucketEdges pins underflow/overflow handling and boundary
// monotonicity of the shared layout.
func TestBucketEdges(t *testing.T) {
	for _, v := range []float64{0, -1, math.NaN(), 1e-9} {
		if got := bucketOf(v); got != 0 {
			t.Errorf("bucketOf(%g) = %d, want underflow bucket 0", v, got)
		}
	}
	if got := bucketOf(1e12); got != NumBuckets-1 {
		t.Errorf("bucketOf(1e12) = %d, want overflow bucket %d", got, NumBuckets-1)
	}
	prev := 0.0
	for i := 0; i < NumBuckets; i++ {
		u := BucketUpper(i)
		if i < NumBuckets-1 && u <= prev {
			t.Fatalf("bucket %d upper %g not above previous %g", i, u, prev)
		}
		prev = u
	}
	if !math.IsInf(BucketUpper(NumBuckets-1), 1) {
		t.Fatal("last bucket upper bound must be +Inf")
	}
	// Every value maps into a bucket whose bounds contain it.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		v := math.Ldexp(rng.Float64()+1, rng.Intn(28)-9)
		b := bucketOf(v)
		if v > BucketUpper(b) {
			t.Fatalf("value %g above its bucket %d upper %g", v, b, BucketUpper(b))
		}
		if b > 0 && v < BucketUpper(b-1) {
			t.Fatalf("value %g below bucket %d lower bound %g", v, b, BucketUpper(b-1))
		}
	}
}

// TestBoundCountedAtItsLe: a bucket's `le` bound is inclusive, as
// Prometheus reads it. Every bound on the grid, the underflow bucket's
// 2^histMinExp included, lands in the bucket it bounds, so with one
// observation per bound the exposition counts i+1 observations at
// le = BucketUpper(i); and an eval of exactly 250 ms is counted under
// le="0.25", the latency objective's bucket.
func TestBoundCountedAtItsLe(t *testing.T) {
	r := NewRegistry()
	grid := r.Histogram("quhe_grid_seconds", "")
	for i := 0; i < NumBuckets-1; i++ {
		u := BucketUpper(i)
		if got := bucketOf(u); got != i {
			t.Errorf("bucketOf(BucketUpper(%d) = %g) = %d", i, u, got)
		}
		grid.Observe(u)
	}
	for _, v := range []float64{0.125, 0.25, 1} {
		r.Histogram("quhe_point_seconds", "", "v", formatFloat(v)).Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := checkPromText(t, b.String())
	for i := 0; i < NumBuckets-1; i++ {
		key := fmt.Sprintf(`quhe_grid_seconds_bucket{le="%s"}`, formatFloat(BucketUpper(i)))
		if got := samples[key]; got != float64(i+1) {
			t.Errorf("%s = %g, want %d", key, got, i+1)
		}
	}
	for _, v := range []string{"0.125", "0.25", "1"} {
		key := fmt.Sprintf(`quhe_point_seconds_bucket{v="%s",le="%s"}`, v, v)
		if got := samples[key]; got != 1 {
			t.Errorf("%s = %g, want 1", key, got)
		}
	}
}

func TestMeanAndMax(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 2, 3, 4} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if mean := s.Sum / float64(s.Count); mean != 2.5 || s.Max != 4 {
		t.Fatalf("mean/max = %g/%g, want 2.5/4", mean, s.Max)
	}
	var empty Histogram
	if es := empty.Snapshot(); es.Count != 0 || es.Sum != 0 || es.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report zero count, sum and quantiles")
	}
}
