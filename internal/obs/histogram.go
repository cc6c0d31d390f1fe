package obs

import (
	"math"
	"sync/atomic"
)

// The bucket layout is log-linear and fixed for every Histogram in the
// process: each power-of-two octave (2^e, 2^(e+1)] is split into
// histSubBuckets equal linear sub-buckets, each closed at its upper
// bound as a Prometheus `le` bucket is, covering exponents
// [histMinExp, histMaxExp], with one underflow bucket below and one
// overflow bucket above. A shared layout is what makes snapshots
// mergeable across histograms (per-session → per-profile → global) by
// plain bucket-wise addition.
//
// With 8 sub-buckets per octave the ratio of a bucket's upper to lower
// bound is at most 1+1/8, so a quantile read off a bucket upper bound
// overestimates the true order statistic by at most 12.5% — the bound
// the property tests assert against a sorted-slice reference.
const (
	histSubBuckets = 8
	histMinExp     = -10 // lowest octave starts at 2^-10 ≈ 0.00098
	histMaxExp     = 20  // highest octave ends at 2^21 ≈ 2.1e6
	histOctaves    = histMaxExp - histMinExp + 1

	// NumBuckets is the fixed bucket count of every histogram:
	// underflow + the log-linear grid + overflow.
	NumBuckets = 1 + histOctaves*histSubBuckets + 1
)

// bucketOf maps a value to the bucket whose (lower, upper] range holds
// it, so a value equal to BucketUpper(i) is counted in bucket i, at its
// `le`. NaN, zero, negatives and anything up to 2^histMinExp land in the
// underflow bucket; anything above 2^(histMaxExp+1) lands in the
// overflow bucket.
func bucketOf(v float64) int {
	if !(v > math.Ldexp(1, histMinExp)) {
		return 0
	}
	if v > math.Ldexp(1, histMaxExp+1) {
		return NumBuckets - 1
	}
	e := math.Ilogb(v)
	// The mantissa is in [1,2), so x is exact and in [0, histSubBuckets);
	// an integral x puts v on the lower bound of the sub-bucket that
	// [lower, upper) ranges would pick, which is the upper bound of the
	// bucket before it.
	x := (math.Ldexp(v, -e) - 1) * histSubBuckets
	i := 1 + (e-histMinExp)*histSubBuckets + int(x)
	if x == math.Trunc(x) {
		i--
	}
	return i
}

// BucketUpper returns the inclusive upper bound of bucket i — the `le`
// boundary of the Prometheus exposition. The underflow bucket's bound is
// the grid's lower edge; the overflow bucket's is +Inf.
func BucketUpper(i int) float64 {
	if i <= 0 {
		return math.Ldexp(1, histMinExp)
	}
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	i--
	e := histMinExp + i/histSubBuckets
	sub := i % histSubBuckets
	return math.Ldexp(1+float64(sub+1)/histSubBuckets, e)
}

// atomicFloat is a float64 updated through CAS on its bit pattern, so
// concurrent adders never take a lock.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Max(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a lock-free log-linear latency/size histogram: Observe is
// one atomic increment plus two CAS adds, with no allocation and no
// mutex, so it sits directly on serving hot paths. Snapshots are
// mergeable and support exact-rank quantiles (the rank is exact; the
// value is resolved to the bucket boundary, ≤ 12.5% above the true order
// statistic). The zero value is ready to use.
type Histogram struct {
	counts [NumBuckets]atomic.Int64
	sum    atomicFloat
	max    atomicFloat
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.max.Max(v)
}

// Snapshot captures the histogram's state. Buckets are loaded
// individually, so a snapshot taken under concurrent writers is a
// consistent-enough view: Count is recomputed from the captured buckets
// and always matches them exactly.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// HistSnapshot is an immutable view of a Histogram. Snapshots merge by
// bucket-wise addition (associative and commutative), which is how
// per-session histograms roll up into per-profile and global views.
type HistSnapshot struct {
	Counts [NumBuckets]int64
	Count  int64
	Sum    float64
	Max    float64
}

// Merge returns the combination of two snapshots.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := s
	for i := range o.Counts {
		out.Counts[i] += o.Counts[i]
	}
	out.Count += o.Count
	out.Sum += o.Sum
	if o.Max > out.Max {
		out.Max = o.Max
	}
	return out
}

// Quantile returns the value at exact rank ceil(q·Count): the bucket
// boundary at or above the true order statistic, capped at the observed
// maximum. Returns 0 for an empty snapshot; q is clamped to [0, 1].
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i := range s.Counts {
		cum += s.Counts[i]
		if cum >= rank {
			upper := BucketUpper(i)
			if s.Max < upper {
				return s.Max
			}
			return upper
		}
	}
	return s.Max
}
