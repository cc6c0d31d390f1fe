package ring

import (
	"math/big"
	"math/rand"
	"testing"
)

func TestGaloisElement(t *testing.T) {
	const n = 64
	if g := GaloisElement(0, n); g != 1 {
		t.Fatalf("GaloisElement(0) = %d, want 1", g)
	}
	if g := GaloisElement(1, n); g != GaloisGen {
		t.Fatalf("GaloisElement(1) = %d, want %d", g, GaloisGen)
	}
	// The group law: g(a)·g(b) ≡ g(a+b) mod 2N, and rotating by −r is the
	// inverse of rotating by r.
	mod := uint64(2 * n)
	for _, pair := range [][2]int{{1, 2}, {3, 7}, {n/2 - 1, 1}, {5, -5}} {
		a, b := pair[0], pair[1]
		if got, want := MulMod(GaloisElement(a, n), GaloisElement(b, n), mod), GaloisElement(a+b, n); got != want {
			t.Fatalf("g(%d)·g(%d) = %d, want g(%d) = %d", a, b, got, a+b, want)
		}
	}
	// 5 has order exactly N/2 mod 2N: the rotation group covers every slot
	// offset without collapsing early.
	seen := map[uint64]bool{}
	for r := 0; r < n/2; r++ {
		g := GaloisElement(r, n)
		if seen[g] {
			t.Fatalf("rotation group collapsed at r = %d", r)
		}
		seen[g] = true
	}
}

// TestAutomorphismNTTMatchesCoeffs pins the NTT-domain gather table
// against the coefficient-domain automorphism: NTT(σ_g(p)) must equal the
// gather of NTT(p), bit-exactly, for every rotation in the power-of-two
// set and the odd steps BSGS uses.
func TestAutomorphismNTTMatchesCoeffs(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		m := testModulus(t, n)
		rng := rand.New(rand.NewSource(int64(n)))
		p := m.UniformPoly(rng)
		for _, rot := range []int{0, 1, 2, 3, 5, n / 4, n/2 - 1, -1, -3} {
			g := GaloisElement(rot, n)

			viaCoeffs := m.NewPoly()
			m.AutomorphismCoeffs(p, g, viaCoeffs)
			m.NTT(viaCoeffs)

			pHat := p.Copy()
			m.NTT(pHat)
			viaNTT := m.NewPoly()
			ApplyAutomorphismNTT(pHat, AutomorphismNTTTable(g, n), viaNTT)

			for i := range viaCoeffs {
				if viaCoeffs[i] != viaNTT[i] {
					t.Fatalf("n=%d rot=%d: NTT-domain automorphism diverges at %d: %d != %d",
						n, rot, i, viaNTT[i], viaCoeffs[i])
				}
			}
		}
	}
}

// TestAutomorphismCoeffsBigIntCRT checks the per-limb coefficient-domain
// automorphism against a big.Int reference over the CRT-combined modulus
// at every chain length the serving profiles use: applying σ_g limb-wise
// must equal applying it to the CRT reconstruction mod Q = ∏q_i.
func TestAutomorphismCoeffsBigIntCRT(t *testing.T) {
	const n = 16
	for _, limbs := range []int{2, 3, 4, 5} {
		tw := testTower(t, n, limbs)
		rng := rand.New(rand.NewSource(int64(700 + limbs)))
		in := randomRNS(tw, rng, limbs)
		out := tw.NewPoly(limbs)
		g := GaloisElement(3, n)
		for i := 0; i < limbs; i++ {
			tw.Qi[i].AutomorphismCoeffs(in[i], g, out[i])
		}

		qs := make([]uint64, limbs)
		bigQ := big.NewInt(1)
		for i := range qs {
			qs[i] = tw.Qi[i].Q
			bigQ.Mul(bigQ, new(big.Int).SetUint64(qs[i]))
		}
		// Reference: gather the CRT coefficients, permute with sign.
		ref := make([]*big.Int, n)
		for i := 0; i < n; i++ {
			k := (uint64(i) * g) % uint64(2*n)
			v := crtBig(in, qs, i)
			if k >= uint64(n) {
				k -= uint64(n)
				v = new(big.Int).Mod(new(big.Int).Neg(v), bigQ)
			}
			ref[k] = v
		}
		for j := 0; j < n; j++ {
			if got := crtBig(out, qs, j); got.Cmp(ref[j]) != 0 {
				t.Fatalf("limbs=%d: coefficient %d = %v, want %v", limbs, j, got, ref[j])
			}
		}
	}
}

// TestAutomorphismNTTMACMatchesUnfused checks the fused gather term of a
// LazySum against permute-then-multiply-accumulate with the strict
// per-term primitives.
func TestAutomorphismNTTMACMatchesUnfused(t *testing.T) {
	const n = 64
	m := testModulus(t, n)
	rng := rand.New(rand.NewSource(7))
	tab := AutomorphismNTTTable(GaloisElement(5, n), n)

	fused := m.NewPoly()
	unfused := m.NewPoly()
	sum := m.LazySum(m.NewPoly(), m.NewPoly(), fused)
	perm := m.NewPoly()
	for term := 0; term < 3; term++ {
		p := m.UniformPoly(rng)
		keyMont := m.NewPoly()
		m.MForm(m.UniformPoly(rng), keyMont)
		sum.MulAddGather(p, tab, keyMont)

		ApplyAutomorphismNTT(p, tab, perm)
		for i := range unfused {
			unfused[i] = AddMod(unfused[i], MRed(perm[i], keyMont[i], m.Q, m.qInv), m.Q)
		}
	}
	sum.Reduce()

	for i := range fused {
		if fused[i] != unfused[i] {
			t.Fatalf("fused MAC diverges at %d: %d != %d", i, fused[i], unfused[i])
		}
	}
}

// TestAutomorphismTableCached verifies table identity on repeat lookup
// (the cache is what keeps per-rotation setup off the hot path).
func TestAutomorphismTableCached(t *testing.T) {
	g := GaloisElement(2, 128)
	a := AutomorphismNTTTable(g, 128)
	b := AutomorphismNTTTable(g, 128)
	if &a[0] != &b[0] {
		t.Fatal("automorphism table not cached")
	}
}
