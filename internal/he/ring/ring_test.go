package ring

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// nttPrime returns the largest prime q < 2^bitLen with q ≡ 1 (mod 2n).
func nttPrime(t testing.TB, bitLen, n int) uint64 {
	t.Helper()
	qs, err := FindNTTPrimes(bitLen, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return qs[0]
}

// mulPoly returns the negacyclic product a·b through the transform.
func mulPoly(m *Modulus, a, b Poly) Poly {
	fa, fb := a.Copy(), b.Copy()
	m.NTT(fa)
	m.NTT(fb)
	m.MulCoeffwise(fa, fb, fa)
	m.INTT(fa)
	return fa
}

// mulPolyNaive is the O(N²) schoolbook negacyclic product, the oracle for
// mulPoly.
func mulPolyNaive(m *Modulus, a, b Poly) Poly {
	n := m.N
	out := m.NewPoly()
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			k := i + j
			prod := MulMod(a[i], b[j], m.Q)
			if k < n {
				out[k] = AddMod(out[k], prod, m.Q)
			} else {
				out[k-n] = SubMod(out[k-n], prod, m.Q) // X^N = −1
			}
		}
	}
	return out
}

func testModulus(t testing.TB, n int) *Modulus {
	t.Helper()
	q := nttPrime(t, 50, n)
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
	q := nttPrime(t, 61, 1024)
	a, b := q-1, q-2
	// (q-1)(q-2) mod q = 2.
	if got := MulMod(a, b, q); got != 2 {
		t.Errorf("MulMod large = %d, want 2", got)
	}
}

func TestFindNTTPrime(t *testing.T) {
	q := nttPrime(t, 30, 1024)
	if q%(2*1024) != 1 {
		t.Errorf("q = %d not 1 mod 2N", q)
	}
	if q >= 1<<30 {
		t.Errorf("q = %d too large", q)
	}
	// The scale primes of small parameter sets sit below 20 bits.
	if q := nttPrime(t, 18, 1024); q%(2*1024) != 1 || q >= 1<<18 {
		t.Errorf("18-bit q = %d", q)
	}
	for _, c := range []struct {
		name      string
		bitLen, n int
	}{
		{"tiny bitLen", 10, 1024},
		{"non-power-of-two n", 30, 1000},
		{"zero n", 30, 0},
		{"bitLen above 62", 64, 1024},
	} {
		if _, err := FindNTTPrimes(c.bitLen, c.n, 1); err == nil {
			t.Errorf("%s accepted", c.name)
		}
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
		fast := mulPoly(m, a, b)
		slow := mulPolyNaive(m, a, b)
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
	got := mulPoly(m, a, b)
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
	for i := range a {
		if SubMod(sum[i], b[i], m.Q) != a[i] {
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

// TestDivRound checks the CKKS rescaling step, RescaleInto, at its
// rounding boundary: with q_ℓ odd and h = (q_ℓ−1)/2, x = y·q_ℓ ± h rounds
// to y and x = y·q_ℓ ± (h+1) rounds away from y, for either sign of y.
func TestDivRound(t *testing.T) {
	const n = 16
	tw := testTower(t, n, 2)
	ql := int64(tw.Qi[1].Q)
	h := (ql - 1) / 2
	cases := []struct{ x, want int64 }{
		{3 * ql, 3}, {-3 * ql, -3},
		{3*ql + h, 3}, {3*ql + h + 1, 4},
		{3*ql - h, 3}, {3*ql - h - 1, 2},
		{-3*ql - h, -3}, {-3*ql - h - 1, -4},
		{h, 0}, {-h, 0}, {h + 1, 1}, {-h - 1, -1},
	}
	vals := make([]int64, n)
	for j, c := range cases {
		vals[j] = c.x
	}
	in := tw.NewPoly(2)
	tw.FromInt64Into(vals, in)
	out := tw.NewPoly(1)
	tw.RescaleInto(in, out)
	for j, c := range cases {
		if got := tw.Qi[0].CenteredInt64(out[0][j]); got != c.want {
			t.Errorf("round((%d)/q_ℓ) = %d, want %d", c.x, got, c.want)
		}
	}
}

// TestInfNorm checks the centered lift that every coefficient-size bound
// is stated in: a polynomial holding −7 and 5 has centered magnitudes 7
// and 5, and the largest magnitude any residue lifts to is (q−1)/2, at
// both (q−1)/2 and (q+1)/2.
func TestInfNorm(t *testing.T) {
	m := testModulus(t, 32)
	p := m.NewPoly()
	p[3] = m.FromInt64(-7)
	p[9] = 5
	var worst int64
	for _, v := range p {
		c := m.CenteredInt64(v)
		if c < 0 {
			c = -c
		}
		worst = max(worst, c)
	}
	if worst != 7 {
		t.Errorf("largest centered magnitude = %d, want 7", worst)
	}
	h := int64(m.Q-1) / 2
	if got := m.CenteredInt64(uint64(h)); got != h {
		t.Errorf("CenteredInt64((q−1)/2) = %d, want %d", got, h)
	}
	if got := m.CenteredInt64(uint64(h) + 1); got != -h {
		t.Errorf("CenteredInt64((q+1)/2) = %d, want %d", got, -h)
	}
}

func TestSamplers(t *testing.T) {
	m := testModulus(t, 1024)
	rng := rand.New(rand.NewSource(4))

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
		ab := mulPoly(m, a, b)
		ba := mulPoly(m, b, a)
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
	psi, err := primitiveRoot2N(q, uint64(n))
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
			q := nttPrime(t, bitLen, n)
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

// TestNTTRoundTripSweep checks NTT∘INTT = id and mulPoly against the
// schoolbook oracle across primes and all supported sizes.
func TestNTTRoundTripSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range testSizes() {
		for _, bitLen := range []int{30, 61} {
			q := nttPrime(t, bitLen, n)
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
			fast := mulPoly(m, a, b)
			slow := mulPolyNaive(m, a, b)
			for i := range fast {
				if fast[i] != slow[i] {
					t.Fatalf("N=%d q=%d: mulPoly[%d] = %d, want %d", n, q, i, fast[i], slow[i])
				}
			}
		}
	}
}

// TestMulPolyInto checks the in-place negacyclic product the evaluator
// builds from NTT, MulCoeffwise and INTT, with the product written over
// either operand or into a separate buffer.
func TestMulPolyInto(t *testing.T) {
	m := testModulus(t, 64)
	rng := rand.New(rand.NewSource(12))
	a := m.UniformPoly(rng)
	b := m.UniformPoly(rng)
	want := mulPolyNaive(m, a, b)

	fa, fb := a.Copy(), b.Copy()
	m.NTT(fa)
	m.NTT(fb)
	for _, c := range []struct {
		name string
		out  func(x, y Poly) Poly
	}{
		{"out separate", func(x, y Poly) Poly { return m.NewPoly() }},
		{"out=a", func(x, y Poly) Poly { return x }},
		{"out=b", func(x, y Poly) Poly { return y }},
	} {
		x, y := fa.Copy(), fb.Copy()
		out := c.out(x, y)
		m.MulCoeffwise(x, y, out)
		m.INTT(out)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("%s: coeff %d = %d, want %d", c.name, i, out[i], want[i])
			}
		}
	}
}

// TestCRTPair checks the two-limb CRT decode of CenteredFloat: residues
// 777 mod q_0 and 123 mod q_1 decode to the centered value with exactly
// those residues, and on a production-size tower, where q_0·q_1 exceeds
// 2⁶⁴, values beyond 64 bits decode without wrapping.
func TestCRTPair(t *testing.T) {
	const q0, q1 = 12289, 40961 // both prime, ≡ 1 mod 32
	tw, err := NewTower(16, []uint64{q0, q1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := tw.NewPoly(2)
	p[0][0], p[1][0] = 777, 123
	v := int64(tw.CenteredFloat(p, 0))
	if float64(v) != tw.CenteredFloat(p, 0) {
		t.Fatalf("CenteredFloat = %g, not an integer", tw.CenteredFloat(p, 0))
	}
	if r0, r1 := (v%q0+q0)%q0, (v%q1+q1)%q1; r0 != 777 || r1 != 123 {
		t.Errorf("CenteredFloat = %d: residues %d, %d, want 777, 123", v, r0, r1)
	}
	if 2*v > q0*q1 || 2*v <= -q0*q1 {
		t.Errorf("CenteredFloat = %d outside (−q_0·q_1/2, q_0·q_1/2]", v)
	}

	big2 := testTower(t, 16, 2)
	if hi, _ := bits.Mul64(big2.Qi[0].Q, big2.Qi[1].Q); hi == 0 {
		t.Fatal("production tower's q_0·q_1 fits in 64 bits")
	}
	wide := big2.NewPoly(2)
	for _, x := range []float64{1 << 70, -(1 << 70)} {
		for i, m := range big2.Qi {
			r := PowMod(2, 70, m.Q)
			if x < 0 {
				r = m.Q - r
			}
			wide[i][1] = r
		}
		if got := big2.CenteredFloat(wide, 1); got != x {
			t.Errorf("CenteredFloat(%g) = %g", x, got)
		}
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
