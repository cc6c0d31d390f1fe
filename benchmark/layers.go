package main

import (
	"fmt"
	"runtime"
	"time"

	"quhe/internal/control"
	"quhe/internal/core"
	"quhe/internal/edge"
	"quhe/internal/he/ckks"
	"quhe/internal/he/profile"
	"quhe/internal/qkd"
	"quhe/internal/qnet"
	"quhe/internal/serve"
	"quhe/internal/transcipher"
)

// reps bounds how often one layer function is called directly: up to max
// calls, stopping early once budget is spent but never before min. At
// λ-128k the few calls costing hundreds of milliseconds (plan build,
// Galois keygen, rotation-key decode) therefore report a median of min
// to a handful of calls, everything else of max.
type reps struct {
	max, min int
	budget   time.Duration
	solves   int // full QuHE solves behind the core.* medians
	replays  int // solo round trips, each paired with a socket-free replay
	probes   int // session lifecycles on the idle server
}

var (
	fullReps  = reps{max: 30, min: 3, budget: 400 * time.Millisecond, solves: 3, replays: 8, probes: 3}
	smokeReps = reps{max: 3, min: 1, budget: 20 * time.Millisecond, solves: 1, replays: 2, probes: 1}
)

// batchCalls is how many calls one sample of a nanosecond-scale function
// spans, so the clock read does not dominate it.
const batchCalls = 1000

// timeCalls returns the median wall time of run in milliseconds. prep,
// when non-nil, runs untimed before every call.
func timeCalls(r reps, prep, run func()) float64 {
	var d []float64
	begin := time.Now()
	for i := 0; i < r.max; i++ {
		if i >= r.min && time.Since(begin) > r.budget {
			break
		}
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		run()
		d = append(d, ms(time.Since(t0)))
	}
	return median(d)
}

// layerPass calls each layer's public functions directly, socket-free, at
// one workload's profile, block size and matrix dimension. It holds what
// a session of that profile holds — keys, the HE-encrypted symmetric key,
// rotation keys, the server's matvec plan — so the replay of an op runs
// on the same operands as the direct calls.
type layerPass struct {
	w   *workload
	in  *inputs
	r   reps
	m   map[string]float64
	err error // first failure of any direct call

	ctx     *ckks.Context
	enc     *ckks.Encoder
	ev      *ckks.Evaluator
	sk      *ckks.SecretKey
	pk      *ckks.PublicKey
	rlk     *ckks.RelinKey
	cipher  *transcipher.Cipher
	scratch *transcipher.Scratch
	key     []float64
	encKey  []*ckks.Ciphertext
	nonce   []byte
	gks     *ckks.GaloisKeySet
	plan    *ckks.MatVecPlan
}

func (lp *layerPass) check(err error) {
	if err != nil && lp.err == nil {
		lp.err = err
	}
}

func (lp *layerPass) time(name string, scale float64, run func()) {
	lp.m[name] = scale * timeCalls(lp.r, nil, run)
}

func newLayerPass(w *workload, in *inputs, r reps) (*layerPass, error) {
	prof, ok := profile.Default().Get(w.profile)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", w.profile)
	}
	ctx, err := prof.Context()
	if err != nil {
		return nil, err
	}
	seed := in.keygenSeed[0]
	lp := &layerPass{
		w: w, in: in, r: r, m: map[string]float64{},
		ctx: ctx, enc: ckks.NewEncoder(ctx), ev: ckks.NewEvaluator(ctx, seed+1),
		nonce: []byte("quhe-bench-nonce"),
	}
	kg := ckks.NewKeyGenerator(ctx, seed)
	lp.sk = kg.GenSecretKey()
	lp.pk = kg.GenPublicKey(lp.sk)
	lp.rlk = kg.GenRelinKey(lp.sk)
	if lp.cipher, err = transcipher.New(ctx, edge.KeyLen); err != nil {
		return nil, err
	}
	lp.scratch = lp.cipher.NewScratch()
	if lp.key, err = lp.cipher.DeriveKey(in.deposit(0, 0, edge.RekeyWithdrawBytes)); err != nil {
		return nil, err
	}
	if lp.encKey, err = lp.cipher.EncryptKey(lp.ev, lp.pk, lp.key); err != nil {
		return nil, err
	}
	return lp, nil
}

// mask is the client's share of a block: pad (or, for matvec, replicate
// the vector across the slots) and add the keystream.
func (lp *layerPass) mask(block uint32, x []float64, replicate bool) []float64 {
	full := make([]float64, lp.cipher.Slots())
	if replicate {
		for j := range full {
			full[j] = x[j%len(x)]
		}
	} else {
		copy(full, x)
	}
	masked, err := lp.cipher.Mask(lp.key, lp.nonce, block, full)
	lp.check(err)
	return masked
}

// affine is the server's share of every block: the fused transcipher
// evaluation with a per-worker Scratch, as the eval pool runs it. nil
// weights and bias give the plain transcipher the matvec path uses.
func (lp *layerPass) affine(block uint32, masked, weights, bias []float64) *ckks.Ciphertext {
	ct, err := lp.cipher.TranscipherAffineWith(lp.scratch, lp.ev, lp.rlk, lp.encKey, lp.nonce, block, masked, weights, bias)
	lp.check(err)
	return ct
}

// run measures every layer and returns the per-layer metrics that need
// no running server.
func (lp *layerPass) run() (map[string]float64, error) {
	lp.ringAndKernels()
	if lp.err == nil {
		lp.blockPath()
	}
	if lp.err == nil {
		lp.rotations()
	}
	if lp.err == nil {
		lp.serve()
		lp.qkd()
		lp.control()
		lp.core()
	}
	return lp.m, lp.err
}

// ringAndKernels times one limb's transforms and the evaluator kernels a
// block is made of, at the levels the transcipher uses them.
func (lp *layerPass) ringAndKernels() {
	ctx, ev := lp.ctx, lp.ev
	top := ctx.MaxLevel()
	rng := streamRand(lp.in.seed, streamPayload, -1)
	limb := ctx.Limb(0)
	poly := limb.UniformPoly(rng)
	lp.time("ring.ntt_us", 1e3, func() { limb.NTT(poly) })
	lp.time("ring.intt_us", 1e3, func() { limb.INTT(poly) })

	vals := randVec(rng, ctx.Params.Slots())
	scale := float64(ctx.Primes[top])
	var pt *ckks.Plaintext
	lp.time("ckks.encode_ms", 1, func() {
		var err error
		pt, err = lp.enc.EncodeRealAtLevel(vals, scale, top)
		lp.check(err)
	})
	if lp.err != nil {
		return
	}
	var ct *ckks.Ciphertext
	lp.time("ckks.encrypt_ms", 1, func() { ct = ev.Encrypt(lp.pk, pt) })
	prod := ctx.NewCiphertext(top)
	lp.time("ckks.mulplain_ms", 1, func() { lp.check(ev.MulPlainInto(ct, pt, prod)) })
	down := ctx.NewCiphertext(top - 1)
	lp.time("ckks.rescale_ms", 1, func() { lp.check(ev.RescaleInto(prod, down)) })
	other, quad := down.Copy(), ctx.NewCiphertext(top-1)
	lp.time("ckks.mulrelin_ms", 1, func() { lp.check(ev.MulRelinInto(down, other, lp.rlk, quad)) })
	lp.time("ckks.keygen_ms", 1, func() {
		kg := ckks.NewKeyGenerator(ctx, lp.in.keygenSeed[0]+3)
		sk := kg.GenSecretKey()
		kg.GenPublicKey(sk)
		kg.GenRelinKey(sk)
	})
}

// blockPath times one affine block end to end without the socket: mask,
// fused transcipher, wire codec, decrypt, decode.
func (lp *layerPass) blockPath() {
	p := &lp.in.lanes[0].affine[0]
	model := &lp.in.model
	var masked []float64
	lp.time("transcipher.mask_ms", 1, func() { masked = lp.mask(1, p.x, false) })
	lp.time("transcipher.encrypt_key_ms", 1, func() {
		_, err := lp.cipher.EncryptKey(lp.ev, lp.pk, lp.key)
		lp.check(err)
	})
	var served *ckks.Ciphertext
	lp.time("transcipher.affine_ms", 1, func() { served = lp.affine(1, masked, model.Weights, model.Bias) })
	if lp.err != nil {
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < lp.r.min; i++ {
		lp.affine(1, masked, model.Weights, model.Bias)
	}
	runtime.ReadMemStats(&after)
	lp.m["transcipher.alloc_mb_per_block"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(lp.r.min)
	lp.m["transcipher.allocs_per_block"] = float64(after.Mallocs-before.Mallocs) / float64(lp.r.min)

	var wire []byte
	lp.time("ckks.ct_encode_us", 1e3, func() { wire = served.AppendBinary(wire[:0]) })
	lp.m["ckks.ct_bytes"] = float64(len(wire))
	var back ckks.Ciphertext
	lp.time("ckks.ct_decode_us", 1e3, func() {
		_, err := back.DecodeFrom(wire)
		lp.check(err)
	})
	var opened *ckks.Plaintext
	lp.time("ckks.decrypt_ms", 1, func() { opened = lp.ev.Decrypt(lp.sk, served) })
	var got []float64
	lp.time("ckks.decode_ms", 1, func() { got = lp.enc.DecodeReal(opened) })
	if e := maxAbsDiff(got[:len(p.want)], p.want); e > replyTolerance {
		lp.check(fmt.Errorf("direct affine block off by %g", e))
	}
}

// rotations times Galois keygen, the plan build and the hoisted kernels
// on a plain transcipher output, exactly what matvecBlock feeds them.
func (lp *layerPass) rotations() {
	ctx, ev := lp.ctx, lp.ev
	top := ctx.MaxLevel()
	// The transcipher output contract the plan is built for: level top−2
	// at scale Δ²/p.
	level := top - 2
	delta := float64(ctx.Primes[top])
	scale := delta * delta / float64(ctx.Primes[top-1])
	rots := ckks.BSGSRotations(lp.w.matDim)
	lp.time("ckks.galois_keygen_ms", 1, func() {
		lp.gks = ckks.NewKeyGenerator(ctx, lp.in.keygenSeed[0]+2).GenGaloisKeys(lp.sk, rots)
	})
	lp.time("ckks.matvec_plan_ms", 1, func() {
		var err error
		lp.plan, err = ev.NewMatVecPlan(lp.in.model.Matrix, lp.in.model.MatrixBias, level, scale)
		lp.check(err)
	})
	if lp.err != nil {
		return
	}
	p := &lp.in.lanes[0].matvec[0]
	input := lp.affine(2, lp.mask(2, p.x, true), nil, nil)
	if lp.err != nil {
		return
	}
	h := ev.NewHoisted()
	lp.time("ckks.hoist_ms", 1, func() { ev.HoistInto(h, input) })
	rot := ctx.NewCiphertext(level)
	lp.time("ckks.rotate_hoisted_ms", 1, func() { lp.check(ev.RotateHoistedInto(h, rots[0], lp.gks, rot)) })
	out := ctx.NewCiphertext(level - 1)
	lp.time("ckks.matvec_ms", 1, func() { lp.check(ev.MatVecInto(lp.plan, input, lp.gks, out)) })
	if lp.err != nil {
		return
	}
	if e := maxAbsDiff(lp.enc.DecodeReal(ev.Decrypt(lp.sk, out))[:len(p.want)], p.want); e > replyTolerance {
		lp.check(fmt.Errorf("direct matvec off by %g", e))
	}
	keyWire := lp.gks.AppendBinary(nil)
	lp.m["ckks.rotkeys_bytes"] = float64(len(keyWire))
	lp.time("ckks.rotkeys_decode_ms", 1, func() {
		var set ckks.GaloisKeySet
		_, err := set.DecodeFrom(keyWire)
		lp.check(err)
	})
}

// serve times the hand-off layers with nothing else running: a no-op job
// through the scheduler onto an eval-pool worker, and the session store's
// register and lookup.
func (lp *layerPass) serve() {
	pool := serve.NewEvalPool(lp.ctx, 2, 1, nil)
	sched := serve.NewScheduler(pool, serverQueueDepth)
	defer sched.Close()
	done := make(chan struct{})
	lp.time("serve.submit_us", 1e3, func() {
		if err := sched.SubmitTo(pool, func(*serve.Worker) { done <- struct{}{} }); err != nil {
			lp.check(fmt.Errorf("idle scheduler: %w", err))
			return
		}
		<-done
	})
	store := serve.NewStore(0)
	n := 0
	var sess *serve.Session
	lp.m["serve.store_register_us"] = 1e3 * timeCalls(lp.r, func() {
		n++
		sess = serve.NewSession(fmt.Sprintf("probe-%d", n), lp.w.profile, lp.pk, lp.rlk, lp.encKey, lp.nonce)
	}, func() { lp.check(store.Register(sess)) })
	lp.time("serve.store_get_ns", 1e6/batchCalls, func() {
		for i := 0; i < batchCalls; i++ {
			store.Get("probe-1")
		}
	})
}

// replay runs the workload's op once with no socket, scheduler or
// framing: the same layer calls, in order, under a `replay` root. The sum
// of its spans is the ledger an idle round trip is reconciled against.
func (lp *layerPass) replay(rec *recorder, i int) {
	model := &lp.in.model
	block := uint32(100 + i)
	matvec := lp.w.kind == kindMatVec
	p := &lp.in.lanes[0].affine[i%payloadsPerLane]
	weights, bias := model.Weights, model.Bias
	if matvec {
		p = &lp.in.lanes[0].matvec[i%payloadsPerLane]
		weights, bias = nil, nil
	}
	t := rec.op("replay", "replay", block)
	defer t.end(0)
	var masked []float64
	_ = t.timed("transcipher.mask", func() error { masked = lp.mask(block, p.x, matvec); return nil })
	var ct *ckks.Ciphertext
	_ = t.timed("transcipher.affine", func() error { ct = lp.affine(block, masked, weights, bias); return nil })
	if lp.err != nil {
		return
	}
	if matvec {
		out := lp.ctx.NewCiphertext(lp.plan.Level() - 1)
		lp.check(t.timed("ckks.matvec", func() error { return lp.ev.MatVecInto(lp.plan, ct, lp.gks, out) }))
		ct = out
	}
	var pt *ckks.Plaintext
	_ = t.timed("ckks.decrypt", func() error { pt = lp.ev.Decrypt(lp.sk, ct); return nil })
	var got []float64
	_ = t.timed("ckks.decode", func() error { got = lp.enc.DecodeReal(pt); return nil })
	if e := maxAbsDiff(got[:len(p.want)], p.want); e > replyTolerance {
		lp.check(fmt.Errorf("replayed op off by %g", e))
	}
}

// ledgerSpans are the replay spans an idle round trip is reconciled
// against; the remainder is edge.overhead_ms (framing, codec, scheduler,
// loopback).
var ledgerSpans = []string{"transcipher.mask", "transcipher.affine", "ckks.matvec", "ckks.decrypt", "ckks.decode"}

func (lp *layerPass) qkd() {
	kc := qkd.NewKeyCenter()
	kc.AttachLedger(qkd.NewLedger())
	lp.check(kc.Provision("probe", 0))
	n := int64(0)
	lp.time("qkd.exchange_ms", 1, func() {
		n++
		_, err := kc.RunExchange("probe", exchangeWerner, exchangeRawBits, lp.in.seed+n)
		lp.check(err)
	})
	lp.check(kc.Deposit("probe", make([]byte, edge.RekeyWithdrawBytes*lp.r.max)))
	attr := qkd.Attribution{Route: "probe", Cause: qkd.CauseSetup}
	lp.time("qkd.withdraw_us", 1e3, func() {
		_, err := kc.WithdrawAttributed("probe", edge.RekeyWithdrawBytes, attr)
		lp.check(err)
	})
}

func (lp *layerPass) control() {
	prof, _ := profile.Default().Get(lp.w.profile)
	ctl, err := control.New(control.Config{
		Network: qnet.SURFnet(), KeyCenter: qkd.NewKeyCenter(), LambdaSet: []float64{prof.Lambda},
	})
	if err != nil {
		lp.check(err)
		return
	}
	ctl.ObserveSession("probe", lp.w.profile)
	lp.time("control.replan_ms", 1, func() {
		_, err := ctl.Replan()
		lp.check(err)
	})
	lp.time("control.admit_ns", 1e6/batchCalls, func() {
		for i := 0; i < batchCalls; i++ {
			lp.check(ctl.AdmitCompute("probe", 0, 512))
		}
	})
	lp.time("control.observe_ns", 1e6/batchCalls, func() {
		for i := 0; i < batchCalls; i++ {
			ctl.ObserveCompute("probe", 512, time.Millisecond, serve.CodeOK)
		}
	})
}

// core solves the paper's program. No served workload calls it; the
// numbers guard cmd/quhe against a change made for serving.
func (lp *layerPass) core() {
	var total, s1, s2, s3 []float64
	for i := 0; i < lp.r.solves; i++ {
		res, err := core.PaperConfig(lp.in.seed).SolveQuHE(core.QuHEOptions{})
		if err != nil {
			lp.check(fmt.Errorf("core solve: %w", err))
			return
		}
		total = append(total, res.Runtime.Seconds())
		s1 = append(s1, ms(res.StageRuntime[0]))
		s2 = append(s2, ms(res.StageRuntime[1]))
		s3 = append(s3, ms(res.StageRuntime[2]))
		lp.m["core.objective"] = res.Eval.Objective
	}
	lp.m["core.solve_s"] = median(total)
	lp.m["core.stage1_ms"] = median(s1)
	lp.m["core.stage2_ms"] = median(s2)
	lp.m["core.stage3_ms"] = median(s3)
}
