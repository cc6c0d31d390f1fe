package ring

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// testPrimes returns NTT primes spanning the supported bit range, the
// moduli the reduction constants must hold for.
func testPrimes(t testing.TB) []uint64 {
	t.Helper()
	out := make([]uint64, 0, 5)
	for _, bitLen := range []int{20, 30, 45, 55, 61} {
		q := nttPrime(t, bitLen, 256)
		out = append(out, q)
	}
	return out
}

func TestMRedConstant(t *testing.T) {
	for _, q := range testPrimes(t) {
		if got := q * MRedConstant(q); got != 1 {
			t.Errorf("q=%d: q·qInv = %d mod 2^64, want 1", q, got)
		}
	}
}

func TestBRedConstant(t *testing.T) {
	two128 := new(big.Int).Lsh(big.NewInt(1), 128)
	for _, q := range testPrimes(t) {
		want := new(big.Int).Div(two128, new(big.Int).SetUint64(q))
		brc := BRedConstant(q)
		got := new(big.Int).Lsh(new(big.Int).SetUint64(brc[0]), 64)
		got.Add(got, new(big.Int).SetUint64(brc[1]))
		if want.Cmp(got) != 0 {
			t.Errorf("q=%d: brc = %v, want %v", q, got, want)
		}
	}
}

// TestMRedMatchesRem64 cross-checks Montgomery reduction against the
// division-based oracle over the full documented domain (a < 2^64, b < q).
func TestMRedMatchesRem64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, q := range testPrimes(t) {
		qInv := MRedConstant(q)
		rInv := InvMod(PowMod(2, 64, q), q) // 2^{-64} mod q
		check := func(a, b uint64) {
			want := MulMod(MulMod(a%q, b%q, q), rInv, q)
			if got := MRed(a, b, q, qInv); got != want {
				t.Fatalf("MRed(%d, %d) mod %d = %d, want %d", a, b, q, got, want)
			}
			lazy := MRedLazy(a, b, q, qInv)
			if lazy >= 2*q {
				t.Fatalf("MRedLazy(%d, %d) mod %d = %d outside [0, 2q)", a, b, q, lazy)
			}
			if lazy%q != want {
				t.Fatalf("MRedLazy(%d, %d) mod %d ≡ %d, want %d", a, b, q, lazy%q, want)
			}
		}
		for _, a := range []uint64{0, 1, q - 1, q, 2*q - 1, 4*q - 1, ^uint64(0)} {
			for _, b := range []uint64{0, 1, q - 1} {
				check(a, b)
			}
		}
		for trial := 0; trial < 2000; trial++ {
			check(rng.Uint64(), rng.Uint64()%q)
		}
	}
}

// TestBRedMatchesRem64 cross-checks Barrett reduction against the
// division-based oracle for arbitrary 64-bit operands.
func TestBRedMatchesRem64(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, q := range testPrimes(t) {
		brc := BRedConstant(q)
		check := func(a, b uint64) {
			want := MulMod(a%q, b%q, q)
			if got := BRed(a, b, q, brc); got != want {
				t.Fatalf("BRed(%d, %d) mod %d = %d, want %d", a, b, q, got, want)
			}
		}
		edge := []uint64{0, 1, q - 1, q, 2 * q, 4*q - 1, ^uint64(0)}
		for _, a := range edge {
			for _, b := range edge {
				check(a, b)
			}
		}
		for trial := 0; trial < 2000; trial++ {
			check(rng.Uint64(), rng.Uint64())
		}
	}
}

func TestBRedAddMatchesRem64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, q := range testPrimes(t) {
		brc := BRedConstant(q)
		for _, a := range []uint64{0, 1, q - 1, q, 2 * q, ^uint64(0)} {
			if got := BRedAdd(a, q, brc); got != a%q {
				t.Fatalf("BRedAdd(%d) mod %d = %d, want %d", a, q, got, a%q)
			}
		}
		for trial := 0; trial < 2000; trial++ {
			a := rng.Uint64()
			if got := BRedAdd(a, q, brc); got != a%q {
				t.Fatalf("BRedAdd(%d) mod %d = %d, want %d", a, q, got, a%q)
			}
		}
	}
}

func TestMFormRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, q := range testPrimes(t) {
		brc := BRedConstant(q)
		qInv := MRedConstant(q)
		r := PowMod(2, 64, q) // 2^64 mod q
		check := func(a uint64) {
			want := MulMod(a%q, r, q)
			m := MForm(a, q, brc)
			if m != want {
				t.Fatalf("MForm(%d) mod %d = %d, want %d", a, q, m, want)
			}
			if back := InvMForm(m, q, qInv); back != a%q {
				t.Fatalf("InvMForm(MForm(%d)) mod %d = %d", a, q, back)
			}
		}
		for _, a := range []uint64{0, 1, q - 1, q, 4*q - 1, ^uint64(0)} {
			check(a)
		}
		for trial := 0; trial < 2000; trial++ {
			check(rng.Uint64())
		}
	}
}

// TestFromInt64MatchesSignedRemainder pins the division-free FromInt64 to
// the signed-remainder form it replaced, on the branch boundaries and on
// random values both inside and far outside (−q, q).
func TestFromInt64MatchesSignedRemainder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, q := range testPrimes(t) {
		m := &Modulus{Q: q}
		sq := int64(q)
		check := func(v int64) {
			want := v % sq
			if want < 0 {
				want += sq
			}
			if got := m.FromInt64(v); got != uint64(want) {
				t.Fatalf("FromInt64(%d) mod %d = %d, want %d", v, q, got, want)
			}
		}
		for _, v := range []int64{
			0, 1, -1, sq - 1, -(sq - 1), sq, -sq, sq + 1, -(sq + 1), 2 * sq, -2 * sq,
			math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		} {
			check(v)
		}
		for trial := 0; trial < 2000; trial++ {
			check(int64(rng.Uint64()))         // any width, either sign
			check(rng.Int63n(2*sq-1) - sq + 1) // inside (−q, q): the fast path
		}
	}
}

// TestModulusPointwiseOps checks the fused polynomial reductions against
// the scalar oracle.
func TestModulusPointwiseOps(t *testing.T) {
	m := testModulus(t, 64)
	rng := rand.New(rand.NewSource(5))
	a := m.UniformPoly(rng)
	b := m.UniformPoly(rng)

	want := m.NewPoly()
	for i := range want {
		want[i] = MulMod(a[i], b[i], m.Q)
	}
	got := m.NewPoly()
	m.MulCoeffwise(a, b, got)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("MulCoeffwise[%d] = %d, want %d", i, got[i], want[i])
		}
	}

	// Montgomery route: MForm(b) then MulCoeffwiseMontgomery ≡ plain product.
	bM := m.NewPoly()
	m.MForm(b, bM)
	m.MulCoeffwiseMontgomery(a, bM, got)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("MulCoeffwiseMontgomery[%d] = %d, want %d", i, got[i], want[i])
		}
	}

	// InvMForm undoes MForm.
	for i := range bM {
		if got := InvMForm(bM[i], m.Q, m.qInv); got != b[i] {
			t.Fatalf("InvMForm[%d] = %d, want %d", i, got, b[i])
		}
	}

	// Fused accumulator.
	acc := a.Copy()
	m.MulCoeffwiseThenAdd(a, b, acc)
	for i := range acc {
		if wantAcc := AddMod(a[i], want[i], m.Q); acc[i] != wantAcc {
			t.Fatalf("MulCoeffwiseThenAdd[%d] = %d, want %d", i, acc[i], wantAcc)
		}
	}

	// ReduceInto brings arbitrary residues into [0, q).
	foreign := make(Poly, m.N)
	for i := range foreign {
		foreign[i] = rng.Uint64()
	}
	reduced := m.NewPoly()
	m.ReduceInto(foreign, reduced)
	for i := range reduced {
		if reduced[i] != foreign[i]%m.Q {
			t.Fatalf("ReduceInto[%d] = %d, want %d", i, reduced[i], foreign[i]%m.Q)
		}
	}

	// MulScalar via Montgomery matches the oracle.
	c := rng.Uint64() % m.Q
	m.MulScalar(a, c, got)
	for i := range got {
		if w := MulMod(a[i], c, m.Q); got[i] != w {
			t.Fatalf("MulScalar[%d] = %d, want %d", i, got[i], w)
		}
	}
}
