package ring

import (
	"math/big"
	"math/rand"
	"testing"
)

// testTower builds an L-limb tower (60-bit base, 50-bit scale primes,
// 61-bit special prime) at ring degree n.
func testTower(t testing.TB, n, limbs int) *Tower {
	t.Helper()
	bitLens := make([]int, limbs+1)
	bitLens[0] = 60
	for i := 1; i < limbs; i++ {
		bitLens[i] = 50
	}
	bitLens[limbs] = 61
	primes, err := FindNTTPrimesDistinct(bitLens, n)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := NewTower(n, primes[:limbs], primes[limbs])
	if err != nil {
		t.Fatal(err)
	}
	return tw
}

// crtBig reconstructs coefficient j of p over the given moduli as the
// unique big.Int in [0, ∏moduli).
func crtBig(p []Poly, moduli []uint64, j int) *big.Int {
	x := new(big.Int)
	prod := big.NewInt(1)
	for i, q := range moduli {
		qi := new(big.Int).SetUint64(q)
		// Incremental CRT: x ← x + prod·((r_i − x)·prod⁻¹ mod q_i).
		r := new(big.Int).SetUint64(p[i][j])
		d := new(big.Int).Sub(r, x)
		d.Mod(d, qi)
		inv := new(big.Int).ModInverse(new(big.Int).Mod(prod, qi), qi)
		d.Mul(d, inv).Mod(d, qi)
		x.Add(x, d.Mul(d, prod))
		prod.Mul(prod, qi)
	}
	return x.Mod(x, prod)
}

// centerBig maps x ∈ [0, q) to its centered representative in
// (−q/2, q/2].
func centerBig(x, q *big.Int) *big.Int {
	half := new(big.Int).Rsh(q, 1)
	if x.Cmp(half) > 0 {
		return new(big.Int).Sub(x, q)
	}
	return new(big.Int).Set(x)
}

// exactDivBig computes (x − [x]_d)/d for centered x: the reference for
// both RescaleInto (d = q_ℓ) and ModDownInto (d = P). [x]_d follows the
// same uncentered-residue convention as the implementation: the residue
// in [0, d) is centered only by its own magnitude, so the correction is
// identical on both sides.
func exactDivBig(x *big.Int, d uint64) *big.Int {
	db := new(big.Int).SetUint64(d)
	r := new(big.Int).Mod(x, db) // [0, d) regardless of x's sign
	r = centerBig(r, db)
	return new(big.Int).Div(new(big.Int).Sub(x, r), db)
}

// randomRNS fills limbs with independent uniform residues — by CRT a
// uniform value mod the limb product.
func randomRNS(tw *Tower, rng *rand.Rand, limbs int) RNSPoly {
	p := tw.NewPoly(limbs)
	for i := 0; i < limbs; i++ {
		tw.Qi[i].UniformPolyInto(rng, p[i])
	}
	return p
}

// TestRescaleMatchesBigInt checks the exact RNS rescale bit-for-bit
// against a big.Int CRT reference at every chain length the serving
// profiles use.
func TestRescaleMatchesBigInt(t *testing.T) {
	const n = 16
	for _, limbs := range []int{2, 3, 4, 5} {
		tw := testTower(t, n, limbs)
		rng := rand.New(rand.NewSource(int64(100 + limbs)))
		in := randomRNS(tw, rng, limbs)
		out := tw.NewPoly(limbs - 1)
		tw.RescaleInto(in, out)

		qs := make([]uint64, limbs)
		for i := range qs {
			qs[i] = tw.Qi[i].Q
		}
		prod := big.NewInt(1)
		for _, q := range qs {
			prod.Mul(prod, new(big.Int).SetUint64(q))
		}
		for j := 0; j < n; j++ {
			x := centerBig(crtBig([]Poly(in), qs, j), prod)
			want := exactDivBig(x, qs[limbs-1])
			for i := 0; i < limbs-1; i++ {
				qi := new(big.Int).SetUint64(qs[i])
				w := new(big.Int).Mod(want, qi).Uint64()
				if out[i][j] != w {
					t.Fatalf("L=%d coeff %d limb %d: got %d want %d", limbs, j, i, out[i][j], w)
				}
			}
		}
	}
}

// TestRescaleIsExactDivision feeds RescaleInto values that are exact
// multiples of q_ℓ: the result must be exactly x/q_ℓ with no rounding
// correction in any limb.
func TestRescaleIsExactDivision(t *testing.T) {
	const n = 16
	for _, limbs := range []int{2, 3, 4} {
		tw := testTower(t, n, limbs)
		rng := rand.New(rand.NewSource(int64(200 + limbs)))
		ql := tw.Qi[limbs-1].Q

		// x = y·q_ℓ for small signed y: build via FromInt64 of y, then
		// multiply every limb by q_ℓ mod q_i.
		y := make([]int64, n)
		for j := range y {
			y[j] = rng.Int63n(1<<40) - (1 << 39)
		}
		in := tw.NewPoly(limbs)
		tw.FromInt64Into(y, in)
		for i := 0; i < limbs; i++ {
			qi := tw.Qi[i]
			qi.MulScalar(in[i], ql%qi.Q, in[i])
		}
		out := tw.NewPoly(limbs - 1)
		tw.RescaleInto(in, out)
		wantPoly := tw.NewPoly(limbs - 1)
		tw.FromInt64Into(y, wantPoly)
		for i := range out {
			for j := range out[i] {
				if out[i][j] != wantPoly[i][j] {
					t.Fatalf("L=%d limb %d coeff %d: got %d want %d (exact multiple)",
						limbs, i, j, out[i][j], wantPoly[i][j])
				}
			}
		}
	}
}

// TestModDownMatchesBigInt checks the special-prime exact division against
// the big.Int reference: a random value over Q·P, divided down to Q.
func TestModDownMatchesBigInt(t *testing.T) {
	const n = 16
	for _, limbs := range []int{2, 3, 4} {
		tw := testTower(t, n, limbs)
		rng := rand.New(rand.NewSource(int64(300 + limbs)))
		inQ := randomRNS(tw, rng, limbs)
		inP := tw.P.UniformPoly(rng)
		out := tw.NewPoly(limbs)
		tw.ModDownInto(inQ, inP, out)

		moduli := make([]uint64, limbs+1)
		rows := make([]Poly, limbs+1)
		for i := 0; i < limbs; i++ {
			moduli[i], rows[i] = tw.Qi[i].Q, inQ[i]
		}
		moduli[limbs], rows[limbs] = tw.P.Q, inP
		prod := big.NewInt(1)
		for _, q := range moduli {
			prod.Mul(prod, new(big.Int).SetUint64(q))
		}
		for j := 0; j < n; j++ {
			x := centerBig(crtBig(rows, moduli, j), prod)
			want := exactDivBig(x, tw.P.Q)
			for i := 0; i < limbs; i++ {
				qi := new(big.Int).SetUint64(moduli[i])
				w := new(big.Int).Mod(want, qi).Uint64()
				if out[i][j] != w {
					t.Fatalf("L=%d coeff %d limb %d: got %d want %d", limbs, j, i, out[i][j], w)
				}
			}
		}
	}
}

// TestModDownNTTMatchesModDown pins the NTT-domain division by P to the
// coefficient-domain one it shortcuts: fed the forward transform of the
// same chain limbs, every limb must come out as exactly the forward
// transform of ModDownInto's, in place or into a separate row.
func TestModDownNTTMatchesModDown(t *testing.T) {
	const n = 64
	for _, limbs := range []int{1, 3, 4} {
		tw := testTower(t, n, limbs)
		rng := rand.New(rand.NewSource(int64(350 + limbs)))
		inQ := randomRNS(tw, rng, limbs)
		inP := tw.P.UniformPoly(rng)
		inP[0], inP[1], inP[2] = 0, tw.P.Q>>1, tw.P.Q>>1+1 // the centering edge

		want := tw.NewPoly(limbs)
		tw.ModDownInto(inQ, inP, want)
		scratch := make(Poly, n)
		for i := 0; i < limbs; i++ {
			tw.Qi[i].NTT(want[i])
			tw.Qi[i].NTT(inQ[i])
			got := make(Poly, n)
			tw.ModDownNTT(i, inQ[i], inP, scratch, got)
			tw.ModDownNTT(i, inQ[i], inP, scratch, inQ[i])
			for j := range got {
				if got[j] != want[i][j] || inQ[i][j] != want[i][j] {
					t.Fatalf("L=%d limb %d coeff %d: got %d (in place %d), want %d",
						limbs, i, j, got[j], inQ[i][j], want[i][j])
				}
			}
		}
	}
}

// TestCenteredFloatMatchesBigInt cross-checks the 128-bit two-limb CRT
// decode against the big.Int reconstruction for values spanning the full
// centered range of q_0·q_1.
func TestCenteredFloatMatchesBigInt(t *testing.T) {
	const n = 64
	tw := testTower(t, n, 3)
	rng := rand.New(rand.NewSource(42))
	p := randomRNS(tw, rng, 2)
	qs := []uint64{tw.Qi[0].Q, tw.Qi[1].Q}
	prod := new(big.Int).Mul(new(big.Int).SetUint64(qs[0]), new(big.Int).SetUint64(qs[1]))
	for j := 0; j < n; j++ {
		want, _ := new(big.Float).SetInt(centerBig(crtBig([]Poly(p), qs, j), prod)).Float64()
		got := tw.CenteredFloat(p, j)
		if diff := got - want; diff > 1 || diff < -1 {
			t.Fatalf("coeff %d: got %g want %g", j, got, want)
		}
	}
	// Small signed values must decode exactly.
	vals := make([]int64, n)
	for j := range vals {
		vals[j] = rng.Int63n(1<<52) - (1 << 51)
	}
	exact := tw.NewPoly(3)
	tw.FromInt64Into(vals, exact)
	for j := range vals {
		if got := tw.CenteredFloat(exact, j); got != float64(vals[j]) {
			t.Fatalf("coeff %d: got %g want %d", j, got, vals[j])
		}
	}
}

// FuzzRNSPolyRoundTrip derives signed coefficients from the fuzz input
// and checks two invariants on a 3-limb tower: the per-limb NTT/INTT
// round trip is the identity on every limb, and the centered CRT decode
// returns exactly the encoded integers.
func FuzzRNSPolyRoundTrip(f *testing.F) {
	f.Add([]byte{0x01, 0xff, 0x80, 0x7f})
	f.Add([]byte{})
	const n = 16
	tw := testTower(f, n, 3)
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]int64, n)
		for j := range vals {
			var v uint64
			for k := 0; k < 6; k++ { // 48-bit magnitudes, well inside q_0·q_1/2
				idx := 6*j + k
				var b byte
				if len(data) > 0 {
					b = data[idx%len(data)]
				}
				v = v<<8 | uint64(b)
			}
			vals[j] = int64(v) - (1 << 47)
		}
		p := tw.NewPoly(3)
		tw.FromInt64Into(vals, p)
		orig := p.Copy()
		for i := range p {
			tw.Qi[i].NTT(p[i])
			tw.Qi[i].INTT(p[i])
		}
		for i := range p {
			for j := range p[i] {
				if p[i][j] != orig[i][j] {
					t.Fatalf("NTT round trip: limb %d coeff %d: %d != %d", i, j, p[i][j], orig[i][j])
				}
			}
		}
		for j := range vals {
			if got := tw.CenteredFloat(p, j); got != float64(vals[j]) {
				t.Fatalf("decode coeff %d: got %g want %d", j, got, vals[j])
			}
		}
	})
}
