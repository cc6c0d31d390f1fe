package ckks

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"quhe/internal/he/ring"
)

// naiveMatVec is the rotate-per-diagonal matvec: n−1 full key switches, no
// hoisting, no BSGS regrouping. Its MAC is MatVecInto's (one NTT-domain
// lazy inner product per limb against pre-transformed diagonals, one
// inverse transform at the end), so a timed gap to MatVecInto isolates
// rotation work.
type naiveMatVec struct {
	plan  *MatVecPlan  // the BSGS plan of the same matrix: level, scale, bias
	diags []*Plaintext // diag_d unrotated, NTT + Montgomery; nil when zero
}

func newNaiveMatVec(ev *Evaluator, m [][]float64, bias []float64, level int) (*naiveMatVec, error) {
	plan, err := ev.NewMatVecPlan(m, bias, level, 0)
	if err != nil {
		return nil, err
	}
	nv := &naiveMatVec{plan: plan, diags: make([]*Plaintext, len(m))}
	enc := NewEncoder(ev.ctx)
	for d := range nv.diags {
		vals, zero := diagonal(m, d, 0, ev.ctx.Params.Slots())
		if zero {
			continue
		}
		pt, err := enc.EncodeRealAtLevel(vals, float64(ev.ctx.Primes[level]), level)
		if err != nil {
			return nil, err
		}
		ev.nttMontgomery(pt)
		nv.diags[d] = pt
	}
	return nv, nil
}

// eval computes out = M·ct (+ bias); gks must cover rotations 1..n−1.
func (nv *naiveMatVec) eval(ev *Evaluator, ct *Ciphertext, gks *GaloisKeySet, out *Ciphertext) error {
	plan := nv.plan
	if err := plan.checkInput(ct, out); err != nil {
		return err
	}
	// RotateInto runs between the terms and owns the evaluator's lazy
	// rows, so the sums spanning it keep theirs in two spare babies.
	mv := ev.ensureMatVec(3)
	tower := ev.ctx.Tower
	limbs := plan.level + 1
	rot, wide0, wide1 := mv.babies[0], mv.babies[1], mv.babies[2]
	sums := make([][2]ring.LazySum, limbs)
	for t := range sums {
		mod := tower.Qi[t]
		sums[t] = [2]ring.LazySum{
			mod.LazySum(wide0.C0[t], wide0.C1[t], mv.acc.C0[t]),
			mod.LazySum(wide1.C0[t], wide1.C1[t], mv.acc.C1[t]),
		}
	}
	var acc *Ciphertext
	for d, pt := range nv.diags {
		if pt == nil {
			continue
		}
		if d == 0 {
			for t := 0; t < limbs; t++ {
				copy(rot.C0[t], ct.C0[t])
				copy(rot.C1[t], ct.C1[t])
			}
		} else if err := ev.RotateInto(ct, d, gks, rot); err != nil {
			return err
		}
		tower.ForEachLimb(limbs, func(t int) {
			mod := tower.Qi[t]
			mod.NTT(rot.C0[t])
			mod.NTT(rot.C1[t])
			sums[t][0].MulAdd(rot.C0[t], pt.Value[t])
			sums[t][1].MulAdd(rot.C1[t], pt.Value[t])
		})
		acc = mv.acc
	}
	for t := range sums {
		sums[t][0].Reduce()
		sums[t][1].Reduce()
	}
	return ev.finishMatVec(plan, ct, acc, out)
}

// matvecContext needs depth ≥ 2: transcipher-style inputs arrive below
// top level and the kernel spends one level on the diagonal products.
func matvecContext(t testing.TB) *Context {
	t.Helper()
	p, err := NewParams(9, 45, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func randomMatrix(rng *rand.Rand, n int) ([][]float64, []float64) {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = rng.Float64()*2 - 1
		}
	}
	bias := make([]float64, n)
	for i := range bias {
		bias[i] = rng.Float64()*2 - 1
	}
	return m, bias
}

func plainMatVec(m [][]float64, v, bias []float64) []float64 {
	n := len(m)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += m[i][j] * v[j]
		}
		if bias != nil {
			s += bias[i]
		}
		out[i] = s
	}
	return out
}

// encryptReplicated packs v replicated across all slots and encrypts at
// the given level.
func encryptReplicated(t *testing.T, ev *Evaluator, pk *PublicKey, v []float64, level int) *Ciphertext {
	t.Helper()
	enc := NewEncoder(ev.ctx)
	full := ev.replicate(v)
	pt, err := enc.EncodeRealAtLevel(full, 0, level)
	if err != nil {
		t.Fatal(err)
	}
	return ev.Encrypt(pk, pt)
}

func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestMatVecAgainstPlaintext runs the BSGS kernel against a float64
// reference at several dimensions (square and non-square n1·n2 splits),
// with and without bias, checking the replicated output layout too.
func TestMatVecAgainstPlaintext(t *testing.T) {
	ctx := matvecContext(t)
	kg := NewKeyGenerator(ctx, 71)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	ev := NewEvaluator(ctx, 72)
	enc := NewEncoder(ctx)
	rng := rand.New(rand.NewSource(73))
	level := ctx.MaxLevel()

	for _, n := range []int{4, 8, 16, 64} {
		for _, withBias := range []bool{false, true} {
			m, bias := randomMatrix(rng, n)
			if !withBias {
				bias = nil
			}
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.Float64()*2 - 1
			}
			plan, err := ev.NewMatVecPlan(m, bias, level, 0)
			if err != nil {
				t.Fatal(err)
			}
			gks := kg.GenGaloisKeys(sk, BSGSRotations(plan.Dim()))
			ct := encryptReplicated(t, ev, pk, v, level)
			out := ctx.NewCiphertext(level - 1)
			if err := ev.MatVecInto(plan, ct, gks, out); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if out.Level != level-1 {
				t.Fatalf("n=%d: output level %d, want %d", n, out.Level, level-1)
			}
			if err := matchScales(out.Scale, ct.Scale); err != nil {
				t.Fatalf("n=%d: output scale drifted: %v", n, err)
			}
			got := enc.DecodeReal(ev.Decrypt(sk, out))
			want := plainMatVec(m, v, bias)
			if e := maxAbsDiff(want, got[:n]); e > 1e-2 {
				t.Errorf("n=%d bias=%v: error %v vs plaintext", n, withBias, e)
			}
			// Replication must survive: the second copy matches the first.
			if e := maxAbsDiff(got[:n], got[n:2*n]); e > 1e-3 {
				t.Errorf("n=%d: output not replicated, copy error %v", n, e)
			}
		}
	}
}

// TestMatVecNaiveMatchesBSGS pins the two evaluation orders against each
// other — same matrix, same input, results must agree to kernel noise.
func TestMatVecNaiveMatchesBSGS(t *testing.T) {
	ctx := matvecContext(t)
	kg := NewKeyGenerator(ctx, 81)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	ev := NewEvaluator(ctx, 82)
	enc := NewEncoder(ctx)
	rng := rand.New(rand.NewSource(83))
	level := ctx.MaxLevel()

	const n = 16
	m, bias := randomMatrix(rng, n)
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	bsgs, err := ev.NewMatVecPlan(m, bias, level, 0)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := newNaiveMatVec(ev, m, bias, level)
	if err != nil {
		t.Fatal(err)
	}
	// The naive path rotates by every diagonal index.
	allRots := make([]int, 0, n-1+len(BSGSRotations(bsgs.Dim())))
	for d := 1; d < n; d++ {
		allRots = append(allRots, d)
	}
	allRots = append(allRots, BSGSRotations(bsgs.Dim())...)
	gks := kg.GenGaloisKeys(sk, allRots)

	ct := encryptReplicated(t, ev, pk, v, level)
	outB := ctx.NewCiphertext(level - 1)
	outN := ctx.NewCiphertext(level - 1)
	if err := ev.MatVecInto(bsgs, ct, gks, outB); err != nil {
		t.Fatal(err)
	}
	if err := naive.eval(ev, ct, gks, outN); err != nil {
		t.Fatal(err)
	}
	gb := enc.DecodeReal(ev.Decrypt(sk, outB))
	gn := enc.DecodeReal(ev.Decrypt(sk, outN))
	if e := maxAbsDiff(gb[:n], gn[:n]); e > 1e-3 {
		t.Errorf("BSGS vs naive error %v", e)
	}
}

// TestHoistedBSGSBeatsNaive gates the rotation kernel's performance claim:
// at n=64 the hoisted BSGS evaluation must run at least 3x faster than
// rotate-per-diagonal over the same pre-encoded matrix. Both paths share
// the diagonal products, so the gap isolates rotation work — n−1 full
// key-switches naive vs O(√n) over one shared hoisted decomposition, a
// ratio of work that holds on one core too. Alternating the two sides and
// comparing minima keeps a slow moment on a shared box from landing on one
// side only.
func TestHoistedBSGSBeatsNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	p, err := NewParams(12, 60, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, 41)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	ev := NewEvaluator(ctx, 42)
	rng := rand.New(rand.NewSource(43))
	level := ctx.MaxLevel()

	const n = 64
	m, bias := randomMatrix(rng, n)
	bsgs, err := ev.NewMatVecPlan(m, bias, level, 0)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := newNaiveMatVec(ev, m, bias, level)
	if err != nil {
		t.Fatal(err)
	}
	rots := append([]int(nil), BSGSRotations(bsgs.Dim())...)
	for d := 1; d < n; d++ {
		rots = append(rots, d)
	}
	gks := kg.GenGaloisKeys(sk, rots)
	ct := encryptReplicated(t, ev, pk, m[0], level)
	out := ctx.NewCiphertext(level - 1)

	timed := func(eval func() error) time.Duration {
		start := time.Now()
		if err := eval(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	var hoisted, rotated time.Duration
	for i := 0; i < 3; i++ {
		d := timed(func() error { return ev.MatVecInto(bsgs, ct, gks, out) })
		if i == 0 || d < hoisted {
			hoisted = d
		}
		d = timed(func() error { return naive.eval(ev, ct, gks, out) })
		if i == 0 || d < rotated {
			rotated = d
		}
	}
	speedup := float64(rotated) / float64(hoisted)
	t.Logf("n=%d: hoisted %v (%d rotations), naive %v (%d rotations), %.2fx",
		n, hoisted, len(BSGSRotations(bsgs.Dim())), rotated, n-1, speedup)
	if speedup < 3 {
		t.Errorf("hoisted BSGS is %.2fx over naive at n=%d, want ≥ 3x", speedup, n)
	}
}

// TestMatVecPlanValidation exercises the shape checks.
func TestMatVecPlanValidation(t *testing.T) {
	ctx := matvecContext(t)
	ev := NewEvaluator(ctx, 91)
	level := ctx.MaxLevel()
	square := [][]float64{{1, 0}, {0, 1}}
	if _, err := ev.NewMatVecPlan([][]float64{{1, 2, 3}}, nil, level, 0); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := ev.NewMatVecPlan(square, []float64{1}, level, 0); err == nil {
		t.Error("short bias accepted")
	}
	if _, err := ev.NewMatVecPlan(square, nil, 0, 0); err == nil {
		t.Error("level 0 accepted (no room to rescale)")
	}
	n := 3 // does not divide a power-of-two slot count
	bad := make([][]float64, n)
	for i := range bad {
		bad[i] = make([]float64, n)
	}
	if _, err := ev.NewMatVecPlan(bad, nil, level, 0); err == nil {
		t.Error("non-divisor dimension accepted")
	}
	plan, err := ev.NewMatVecPlan(square, nil, level, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Dim() != 2 || plan.Level() != level {
		t.Error("plan metadata wrong")
	}
}

// TestBSGSRotations pins the shared shape rule both endpoints derive: the
// baby steps 1..n1−1 and the one giant step n1, so n1 keys whenever there
// is more than one giant block.
func TestBSGSRotations(t *testing.T) {
	got := BSGSRotations(64) // n1 = n2 = 8
	if want := []int{1, 2, 3, 4, 5, 6, 7, 8}; !slices.Equal(got, want) {
		t.Fatalf("rotations %v, want %v", got, want)
	}
	for n := 1; n <= 4096; n++ {
		n1, n2 := matVecSplit(n)
		want := n1 - 1
		if n2 > 1 {
			want = n1
		}
		if got := len(BSGSRotations(n)); got != want {
			t.Fatalf("n = %d (n1 = %d, n2 = %d): %d rotations, want %d", n, n1, n2, got, want)
		}
	}
}

// TestMatVecKeySwitches pins what a served block is priced by apart from
// what a session uploads: the dense 256×256 at λ-128k runs 15 baby
// rotations and 15 giant steps, 30 key switches, under 16 keys.
func TestMatVecKeySwitches(t *testing.T) {
	_, plan, _, gks, _ := servedMatVec(t)
	if got := plan.KeySwitches(); got != 30 {
		t.Errorf("served plan runs %d key switches, want 30", got)
	}
	if got := len(BSGSRotations(plan.Dim())); got != 16 || len(gks.Keys) != 16 {
		t.Errorf("served plan needs %d rotations (%d keys), want 16", got, len(gks.Keys))
	}
}

// servedMatVec builds the benchmark's matvec-128k-sat shape: λ-128k
// parameters (LogN 12, 60/50×4/61 chain), dense 256×256 with bias, input
// two levels below the top where the transcipher leaves a block.
func servedMatVec(tb testing.TB) (ev *Evaluator, plan *MatVecPlan, ct *Ciphertext, gks *GaloisKeySet, out *Ciphertext) {
	tb.Helper()
	p, err := NewParams(12, 60, 50, 4)
	if err != nil {
		tb.Fatal(err)
	}
	ctx, err := NewContext(p)
	if err != nil {
		tb.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, 101)
	sk := kg.GenSecretKey()
	ev = NewEvaluator(ctx, 102)
	const n = 256
	level := ctx.MaxLevel() - 2
	m, bias := randomMatrix(rand.New(rand.NewSource(103)), n)
	if plan, err = ev.NewMatVecPlan(m, bias, level, 0); err != nil {
		tb.Fatal(err)
	}
	gks = kg.GenGaloisKeys(sk, BSGSRotations(plan.Dim()))
	pt, err := NewEncoder(ctx).EncodeRealAtLevel(ev.replicate(bias), 0, level)
	if err != nil {
		tb.Fatal(err)
	}
	return ev, plan, ev.Encrypt(kg.GenPublicKey(sk), pt), gks, ctx.NewCiphertext(level - 1)
}

// BenchmarkMatVec times one served-shape MatVecInto on a warm evaluator
// (-benchmem for its allocations, -cpuprofile for where the time goes).
func BenchmarkMatVec(b *testing.B) {
	ev, plan, ct, gks, out := servedMatVec(b)
	if err := ev.MatVecInto(plan, ct, gks, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.MatVecInto(plan, ct, gks, out); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMatVecSteadyStateAllocs gates a warm served-shape MatVecInto's
// allocations: nothing that scales with N, the matrix or the rotation
// keys — only the one closure each limb fan-out hands ring.ForEach.
func TestMatVecSteadyStateAllocs(t *testing.T) {
	ev, plan, ct, gks, out := servedMatVec(t)
	run := func() {
		if err := ev.MatVecInto(plan, ct, gks, out); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: the evaluator's matvec scratch
	// Measured 81 (-benchmem agrees): one object, the closure ring.ForEach
	// runs per index, for each fan-out of three or four limbs — two per
	// baby rotation, three per giant step, one each for the input, the
	// hoist, the top block and the output, two for the rescale. When
	// every fan-out built a task slice and wrapped each limb twice this
	// was 716. The bound leaves ~5% for runtime drift, not for a
	// regression: one more fan-out per rotation is +30.
	const bound = 86
	if allocs := testing.AllocsPerRun(3, run); allocs > bound {
		t.Errorf("steady-state matvec allocates %v objects, bound %d", allocs, bound)
	}
}

// TestMatVecChunkedInnerSum runs the kernel where a giant block's inner
// sum is longer than one lazy reduction admits: n = 1024 splits into
// n1 = 32 baby steps, twice the ⌊2⁶⁴/q_0⌋ = 16 products the 60-bit base
// limb accumulates between reductions, so that limb's sums are reduced per
// chunk and added. A band matrix keeps it cheap: block 0 full (two whole
// chunks), block 1 with 21 diagonals (a whole chunk and a partial one).
func TestMatVecChunkedInnerSum(t *testing.T) {
	p, err := NewParams(11, 60, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	const n, band = 1024, 53
	n1, _ := matVecSplit(n)
	if bound := ctx.Limb(0).LazySumTerms(); n1 <= bound || band-n1 <= bound {
		t.Fatalf("n1 = %d, band = %d do not exceed the base limb's %d-term bound", n1, band, bound)
	}
	kg := NewKeyGenerator(ctx, 111)
	sk := kg.GenSecretKey()
	ev := NewEvaluator(ctx, 112)
	rng := rand.New(rand.NewSource(113))
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for d := 0; d < band; d++ {
			m[i][(i+d)%n] = rng.Float64()*2 - 1
		}
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	level := ctx.MaxLevel()
	plan, err := ev.NewMatVecPlan(m, nil, level, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Only the rotations the band touches: every baby step, one giant step.
	rots := []int{n1}
	for i := 1; i < n1; i++ {
		rots = append(rots, i)
	}
	gks := kg.GenGaloisKeys(sk, rots)
	ct := encryptReplicated(t, ev, kg.GenPublicKey(sk), v, level)
	out := ctx.NewCiphertext(level - 1)
	if err := ev.MatVecInto(plan, ct, gks, out); err != nil {
		t.Fatal(err)
	}
	got := NewEncoder(ctx).DecodeReal(ev.Decrypt(sk, out))
	if e := maxAbsDiff(plainMatVec(m, v, nil), got[:n]); e > 1e-6 {
		t.Errorf("chunked inner sum: error %v vs plaintext", e)
	}
	sameCiphertext(t, "chunked inner sum vs strict reference", out, strictRef{ctx}.matVec(t, plan, ct, gks))
}
