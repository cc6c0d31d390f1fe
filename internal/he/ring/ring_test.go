package ring

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func testModulus(t testing.TB, n int) *Modulus {
	t.Helper()
	q, err := FindNTTPrime(50, n)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModulus(q, n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModArithmetic(t *testing.T) {
	const q = 97
	if got := AddMod(90, 10, q); got != 3 {
		t.Errorf("AddMod = %d, want 3", got)
	}
	if got := SubMod(5, 10, q); got != 92 {
		t.Errorf("SubMod = %d, want 92", got)
	}
	if got := MulMod(96, 96, q); got != 1 {
		t.Errorf("MulMod = %d, want 1 ((-1)² = 1)", got)
	}
	if got := PowMod(3, 96, q); got != 1 {
		t.Errorf("PowMod Fermat = %d, want 1", got)
	}
	if got := MulMod(InvMod(17, q), 17, q); got != 1 {
		t.Errorf("InvMod: 17·17⁻¹ = %d, want 1", got)
	}
}

func TestMulModLargeOperands(t *testing.T) {
	q, err := FindNTTPrime(61, 1024)
	if err != nil {
		t.Fatal(err)
	}
	a, b := q-1, q-2
	// (q-1)(q-2) mod q = 2.
	if got := MulMod(a, b, q); got != 2 {
		t.Errorf("MulMod large = %d, want 2", got)
	}
}

func TestFindNTTPrime(t *testing.T) {
	q, err := FindNTTPrime(30, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if q%(2*1024) != 1 {
		t.Errorf("q = %d not 1 mod 2N", q)
	}
	if q >= 1<<30 {
		t.Errorf("q = %d too large", q)
	}
	if _, err := FindNTTPrime(10, 1024); err == nil {
		t.Error("tiny bitLen accepted")
	}
	if _, err := FindNTTPrime(30, 1000); err == nil {
		t.Error("non-power-of-two n accepted")
	}
}

func TestNewModulusValidation(t *testing.T) {
	if _, err := NewModulus(97, 1024); err == nil {
		t.Error("q not 1 mod 2N accepted")
	}
	if _, err := NewModulus(2*1024*3+1, 1000); err == nil {
		t.Error("bad N accepted")
	}
	// 12289 = 1 + 12·1024 is prime and ≡ 1 mod 2048.
	if _, err := NewModulus(12289, 1024); err != nil {
		t.Errorf("12289/1024 rejected: %v", err)
	}
	// Composite ≡ 1 mod 2N must be rejected.
	if _, err := NewModulus(2048*2+1, 1024); err == nil { // 4097 = 17·241
		t.Error("composite modulus accepted")
	}
}

func TestNTTRoundTrip(t *testing.T) {
	m := testModulus(t, 256)
	rng := rand.New(rand.NewSource(1))
	p := m.UniformPoly(rng)
	orig := p.Copy()
	m.NTT(p)
	// NTT must change the representation (overwhelmingly likely).
	same := true
	for i := range p {
		if p[i] != orig[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("NTT left polynomial unchanged")
	}
	m.INTT(p)
	for i := range p {
		if p[i] != orig[i] {
			t.Fatalf("round trip failed at %d: %d != %d", i, p[i], orig[i])
		}
	}
}

func TestMulPolyMatchesNaive(t *testing.T) {
	m := testModulus(t, 64)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		a := m.UniformPoly(rng)
		b := m.UniformPoly(rng)
		fast := m.MulPoly(a, b)
		slow := m.MulPolyNaive(a, b)
		for i := range fast {
			if fast[i] != slow[i] {
				t.Fatalf("trial %d: coeff %d: NTT %d != naive %d", trial, i, fast[i], slow[i])
			}
		}
	}
}

func TestNegacyclicWraparound(t *testing.T) {
	m := testModulus(t, 8)
	// X^7 · X = X^8 = −1.
	a := m.NewPoly()
	b := m.NewPoly()
	a[7] = 1
	b[1] = 1
	got := m.MulPoly(a, b)
	want := m.NewPoly()
	want[0] = m.Q - 1
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("X^7·X: coeff %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAddSubNeg(t *testing.T) {
	m := testModulus(t, 32)
	rng := rand.New(rand.NewSource(3))
	a := m.UniformPoly(rng)
	b := m.UniformPoly(rng)
	sum := m.NewPoly()
	m.Add(a, b, sum)
	diff := m.NewPoly()
	m.Sub(sum, b, diff)
	for i := range a {
		if diff[i] != a[i] {
			t.Fatalf("(a+b)−b != a at %d", i)
		}
	}
	neg := m.NewPoly()
	m.Neg(a, neg)
	zero := m.NewPoly()
	m.Add(a, neg, zero)
	for i := range zero {
		if zero[i] != 0 {
			t.Fatalf("a + (−a) != 0 at %d", i)
		}
	}
}

func TestCenteredLift(t *testing.T) {
	m := testModulus(t, 32)
	if got := m.CenteredInt64(1); got != 1 {
		t.Errorf("CenteredInt64(1) = %d", got)
	}
	if got := m.CenteredInt64(m.Q - 1); got != -1 {
		t.Errorf("CenteredInt64(q−1) = %d, want −1", got)
	}
	if got := m.FromInt64(-1); got != m.Q-1 {
		t.Errorf("FromInt64(−1) = %d, want q−1", got)
	}
	if got := m.FromInt64(int64(m.Q) + 5); got != 5 {
		t.Errorf("FromInt64(q+5) = %d, want 5", got)
	}
}

func TestDivRound(t *testing.T) {
	m := testModulus(t, 32)
	p := m.NewPoly()
	p[0] = 1000
	p[1] = m.FromInt64(-1000)
	p[2] = 1500
	p[3] = m.FromInt64(-1500)
	out := m.NewPoly()
	m.DivRound(p, 1000, out)
	if m.CenteredInt64(out[0]) != 1 || m.CenteredInt64(out[1]) != -1 {
		t.Errorf("DivRound exact: %d, %d", m.CenteredInt64(out[0]), m.CenteredInt64(out[1]))
	}
	if m.CenteredInt64(out[2]) != 2 || m.CenteredInt64(out[3]) != -2 {
		t.Errorf("DivRound rounding: %d, %d (1.5 rounds away from zero)",
			m.CenteredInt64(out[2]), m.CenteredInt64(out[3]))
	}
}

func TestSamplers(t *testing.T) {
	m := testModulus(t, 1024)
	rng := rand.New(rand.NewSource(4))

	tern := m.TernaryPoly(rng)
	for i, v := range tern {
		if c := m.CenteredInt64(v); c < -1 || c > 1 {
			t.Fatalf("ternary coeff %d = %d", i, c)
		}
	}

	gauss := m.GaussianPoly(rng, 3.2)
	var sum, count float64
	for _, v := range gauss {
		c := float64(m.CenteredInt64(v))
		if c > 40 || c < -40 {
			t.Fatalf("gaussian coeff %v implausibly large for σ=3.2", c)
		}
		sum += c
		count++
	}
	if mean := sum / count; mean > 1 || mean < -1 {
		t.Errorf("gaussian mean %v far from 0", mean)
	}

	uni := m.UniformPoly(rng)
	var big int
	for _, v := range uni {
		if v >= m.Q {
			t.Fatal("uniform coeff out of range")
		}
		if v > m.Q/2 {
			big++
		}
	}
	if frac := float64(big) / float64(len(uni)); frac < 0.4 || frac > 0.6 {
		t.Errorf("uniform sampler skewed: %v above q/2", frac)
	}
}

func TestInfNorm(t *testing.T) {
	m := testModulus(t, 32)
	p := m.NewPoly()
	p[3] = m.FromInt64(-7)
	p[9] = 5
	if got := m.InfNorm(p); got != 7 {
		t.Errorf("InfNorm = %d, want 7", got)
	}
}

// Property: NTT is linear — NTT(a+b) = NTT(a) + NTT(b).
func TestNTTLinearityProperty(t *testing.T) {
	m := testModulus(t, 128)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := m.UniformPoly(rng)
		b := m.UniformPoly(rng)
		sum := m.NewPoly()
		m.Add(a, b, sum)
		m.NTT(sum)
		m.NTT(a)
		m.NTT(b)
		expect := m.NewPoly()
		m.Add(a, b, expect)
		for i := range sum {
			if sum[i] != expect[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: multiplication is commutative.
func TestMulCommutative(t *testing.T) {
	m := testModulus(t, 64)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := m.UniformPoly(rng)
		b := m.UniformPoly(rng)
		ab := m.MulPoly(a, b)
		ba := m.MulPoly(b, a)
		for i := range ab {
			if ab[i] != ba[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// referenceNTT/referenceINTT are the strict-domain textbook transforms (the
// pre-Montgomery seed implementation, one division per butterfly), kept as
// the bit-exactness oracle for the lazy rewrites.
type referenceTables struct {
	q         uint64
	n         int
	psiPow    []uint64
	psiInvPow []uint64
	nInv      uint64
}

func newReferenceTables(t *testing.T, q uint64, n int) *referenceTables {
	t.Helper()
	psi, err := PrimitiveRoot2N(q, n)
	if err != nil {
		t.Fatal(err)
	}
	r := &referenceTables{q: q, n: n, psiPow: make([]uint64, n), psiInvPow: make([]uint64, n)}
	psiInv := InvMod(psi, q)
	logN := bits.TrailingZeros(uint(n))
	fw, inv := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		rev := reverseBits(uint32(i), logN)
		r.psiPow[rev] = fw
		r.psiInvPow[rev] = inv
		fw = MulMod(fw, psi, q)
		inv = MulMod(inv, psiInv, q)
	}
	r.nInv = InvMod(uint64(n), q)
	return r
}

func (r *referenceTables) ntt(p Poly) {
	t := r.n
	for mm := 1; mm < r.n; mm <<= 1 {
		t >>= 1
		for i := 0; i < mm; i++ {
			j1 := 2 * i * t
			s := r.psiPow[mm+i]
			for j := j1; j < j1+t; j++ {
				u := p[j]
				v := MulMod(p[j+t], s, r.q)
				p[j] = AddMod(u, v, r.q)
				p[j+t] = SubMod(u, v, r.q)
			}
		}
	}
}

func (r *referenceTables) intt(p Poly) {
	t := 1
	for mm := r.n; mm > 1; mm >>= 1 {
		j1 := 0
		h := mm >> 1
		for i := 0; i < h; i++ {
			s := r.psiInvPow[h+i]
			for j := j1; j < j1+t; j++ {
				u := p[j]
				v := p[j+t]
				p[j] = AddMod(u, v, r.q)
				p[j+t] = MulMod(SubMod(u, v, r.q), s, r.q)
			}
			j1 += 2 * t
		}
		t <<= 1
	}
	for i := range p {
		p[i] = MulMod(p[i], r.nInv, r.q)
	}
}

// testSizes returns the ring degrees exercised by the sweep tests: every
// log N from 1 to 13, so both parities of the stage count, the leftover
// radix-2 stage, the peeled quads and the N < 16 shapes are all covered;
// -short stops at 256.
func testSizes() []int {
	maxLogN := 13
	if testing.Short() {
		maxLogN = 8
	}
	sizes := make([]int, 0, maxLogN)
	for logN := 1; logN <= maxLogN; logN++ {
		sizes = append(sizes, 1<<logN)
	}
	return sizes
}

// TestNTTMatchesReference verifies the lazy Montgomery NTT/INTT produce
// outputs bit-identical to the strict division-based reference across
// primes and sizes, and that INTT(NTT(p)) == p. Beside random inputs the
// 61-bit prime — the one that leaves the lazy ranges the least headroom
// below 2⁶⁴ — gets the inputs that drive them to their ends.
func TestNTTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range testSizes() {
		for _, bitLen := range []int{30, 50, 61} {
			q, err := FindNTTPrime(bitLen, n)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewModulus(q, n)
			if err != nil {
				t.Fatal(err)
			}
			ref := newReferenceTables(t, q, n)
			inputs := map[string]Poly{"random": m.UniformPoly(rng)}
			if bitLen == 61 {
				inputs["zero"] = m.NewPoly()
				inputs["q-1"] = m.NewPoly()
				inputs["0,q-1"] = m.NewPoly()
				inputs["q-1,0"] = m.NewPoly()
				for i := 0; i < n; i++ {
					inputs["q-1"][i] = q - 1
					inputs["0,q-1"][i] = uint64(i&1) * (q - 1)
					inputs["q-1,0"][i] = uint64(1-i&1) * (q - 1)
				}
			}
			for name, orig := range inputs {
				p, want := orig.Copy(), orig.Copy()
				m.NTT(p)
				ref.ntt(want)
				for i := range p {
					if p[i] != want[i] {
						t.Fatalf("N=%d q=%d %s: NTT[%d] = %d, want %d", n, q, name, i, p[i], want[i])
					}
				}
				m.INTT(p)
				ref.intt(want)
				for i := range p {
					if p[i] != want[i] {
						t.Fatalf("N=%d q=%d %s: INTT[%d] = %d, want %d", n, q, name, i, p[i], want[i])
					}
					if p[i] != orig[i] {
						t.Fatalf("N=%d q=%d %s: round trip[%d] = %d, want %d", n, q, name, i, p[i], orig[i])
					}
				}
			}
		}
	}
}

// TestNTTRoundTripSweep checks NTT∘INTT = id and MulPoly against the
// schoolbook oracle across primes and all supported sizes.
func TestNTTRoundTripSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range testSizes() {
		for _, bitLen := range []int{30, 61} {
			q, err := FindNTTPrime(bitLen, n)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewModulus(q, n)
			if err != nil {
				t.Fatal(err)
			}
			p := m.UniformPoly(rng)
			orig := p.Copy()
			m.NTT(p)
			m.INTT(p)
			for i := range p {
				if p[i] != orig[i] {
					t.Fatalf("N=%d q=%d: round trip[%d] = %d, want %d", n, q, i, p[i], orig[i])
				}
			}
			if n > 512 {
				continue // schoolbook oracle too slow beyond this
			}
			a := m.UniformPoly(rng)
			b := m.UniformPoly(rng)
			fast := m.MulPoly(a, b)
			slow := m.MulPolyNaive(a, b)
			for i := range fast {
				if fast[i] != slow[i] {
					t.Fatalf("N=%d q=%d: MulPoly[%d] = %d, want %d", n, q, i, fast[i], slow[i])
				}
			}
		}
	}
}

// TestMulPolyInto checks the allocation-free variant, including aliasing.
func TestMulPolyInto(t *testing.T) {
	m := testModulus(t, 64)
	rng := rand.New(rand.NewSource(12))
	a := m.UniformPoly(rng)
	b := m.UniformPoly(rng)
	want := m.MulPolyNaive(a, b)

	out := m.NewPoly()
	m.MulPolyInto(a, b, out)
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("MulPolyInto[%d] = %d, want %d", i, out[i], want[i])
		}
	}

	// out aliasing a, then b.
	aa := a.Copy()
	m.MulPolyInto(aa, b, aa)
	bb := b.Copy()
	m.MulPolyInto(a, bb, bb)
	for i := range want {
		if aa[i] != want[i] {
			t.Fatalf("MulPolyInto(out=a)[%d] = %d, want %d", i, aa[i], want[i])
		}
		if bb[i] != want[i] {
			t.Fatalf("MulPolyInto(out=b)[%d] = %d, want %d", i, bb[i], want[i])
		}
	}
}

func TestCRTPair(t *testing.T) {
	const q1, q2 = 12289, 40961 // both prime
	r1, r2 := uint64(777), uint64(123)
	v := CRTPair(r1, q1, r2, q2)
	if v%q1 != r1 || v%q2 != r2 {
		t.Errorf("CRTPair = %d: residues %d, %d, want %d, %d", v, v%q1, v%q2, r1, r2)
	}
	defer func() {
		if recover() == nil {
			t.Error("CRTPair accepted modulus product ≥ 2^63")
		}
	}()
	CRTPair(1, 1<<32, 1, 1<<32) // product 2^64 wraps: must panic
}

// TestForEach pins the fan-out contract: every index runs exactly once on
// both sides of ParallelMinN, and a nested ForEach under a saturated pool
// completes by degrading inline (counted by InlineDegradations) instead of
// waiting for a worker.
func TestForEach(t *testing.T) {
	for _, n := range []int{ParallelMinN / 2, ParallelMinN} {
		for _, count := range []int{0, 1, 2, 8, 33} {
			hits := make([]atomic.Int32, count)
			ForEach(n, count, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Errorf("n=%d count=%d: index %d ran %d times", n, count, i, got)
				}
			}
		}
	}

	// Saturate the pool: a blocking send completes only once a worker has
	// taken the task, and each one taken parks its worker until release.
	// With no worker free, every offered index of a two-deep fan-out has to
	// run inline on this goroutine — none may wait for capacity.
	var parked sync.WaitGroup
	release := make(chan struct{})
	for w := 1; w < runtime.GOMAXPROCS(0); w++ {
		parked.Add(1)
		parTasks <- parTask{func(int) { <-release }, 0, &parked}
	}
	before := InlineDegradations()
	inner := 0
	ForEach(ParallelMinN, 3, func(int) {
		ForEach(ParallelMinN, 4, func(int) { inner++ })
	})
	close(release)
	parked.Wait()
	if inner != 12 {
		t.Errorf("nested ForEach ran %d inner indices, want 12", inner)
	}
	if got := InlineDegradations() - before; got != 2+3*3 {
		t.Errorf("InlineDegradations rose by %d under a saturated pool, want 11", got)
	}
}

func benchSizes() []int { return []int{1024, 2048, 4096, 8192} }

func BenchmarkNTT(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			m := testModulus(b, n)
			rng := rand.New(rand.NewSource(1))
			p := m.UniformPoly(rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.NTT(p)
			}
		})
	}
}

func BenchmarkINTT(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			m := testModulus(b, n)
			rng := rand.New(rand.NewSource(1))
			p := m.UniformPoly(rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.INTT(p)
			}
		})
	}
}

func BenchmarkMulPoly(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			m := testModulus(b, n)
			rng := rand.New(rand.NewSource(1))
			p := m.UniformPoly(rng)
			q := m.UniformPoly(rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MulPoly(p, q)
			}
		})
	}
}

func BenchmarkMulPolyInto(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			m := testModulus(b, n)
			rng := rand.New(rand.NewSource(1))
			p := m.UniformPoly(rng)
			q := m.UniformPoly(rng)
			out := m.NewPoly()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MulPolyInto(p, q, out)
			}
		})
	}
}
