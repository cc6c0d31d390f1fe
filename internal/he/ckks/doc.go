// Package ckks implements a compact but genuine RNS-CKKS approximate
// homomorphic encryption scheme: canonical-embedding encoding, RLWE key
// generation (secret, public and hybrid relinearization keys),
// encryption, decryption, homomorphic add / multiply / rescale, and level
// management. It is the server-side computation substrate of the QuHE
// system (§III-A.2/4): encrypted inference runs on CKKS slots.
//
// # Residue-tower representation
//
// The ciphertext modulus is a chain Q = q_0·q_1·…·q_L of NTT-friendly
// primes, and every polynomial is a ring.RNSPoly — one uint64 limb per
// prime, CRT views of the same integer coefficients. Q can therefore be
// hundreds of bits wide while all arithmetic stays in 64-bit words: a
// level-ℓ object carries limbs 0..ℓ, operations apply per limb with that
// limb's NTT context, and the independent limbs fan out through
// ring.ForEach, claimed one by one by the caller and helpers on idle cores
// — the multiplication pipeline's parallelism grows with the chain length
// instead of being capped at the two ciphertext components.
//
// Rescaling is the exact RNS rescale (ring.Tower.RescaleInto): dropping
// the top limb divides by q_ℓ with a centered-remainder correction folded
// into every remaining limb, no big-integer arithmetic anywhere.
//
// # Hybrid key switching
//
// Relinearization uses the special-prime hybrid construction instead of
// digit decomposition. A key is built for the level l it is used at: one
// key part per chain limb 0..l over the extended basis QP_l = q_0…q_l·P
// (P a prime ≥ every q_i, its limb at index l+1), part j carrying P·s² on
// limb j only — (l+1) digits × (l+2) limbs, the cells a switch at level l
// reads and no others. MulRelinInto decomposes the degree-2 term into its
// RNS digits D_j = [d2]_{q_j}, folds each digit through part j on every
// target limb (O(L²) per-limb NTTs, parallel over targets), and divides
// the accumulated product by P (ring.Tower.ModDownInto), which scales the
// key-switch noise down by P ≈ 2⁶¹. The context names the levels its keys
// are built for (Context.WithKeyLevels; the top level, which serves every
// level, unless narrowed): a security profile builds the relinearization
// key for the transcipher's squaring level and Galois keys for the matvec
// level, 12 and 6 limb-polys per component on the depth-3 chain instead
// of the whole chain's 20. Context.CheckSwitchingKey refuses a key of any
// other width, and a switch through a key built for a lower level than
// its operand is ErrKeyShape.
//
// # Galois rotations and hoisting
//
// Slot rotations use the same hybrid construction: a GaloisKey per
// rotation step key-switches the automorphism X → X^k of the secret back
// under s (galois.go). Because the expensive half of a rotation — the RNS
// digit decomposition of c1 over the extended basis QP — depends only on
// the ciphertext, Hoisted computes it once and every subsequent rotation
// of the same ciphertext reuses it, paying only the per-key inner
// products and one ModDown. The BSGS packed matrix–vector kernel
// (linalg.go) builds on that: √n baby rotations from one hoisted
// decomposition, diagonals stored NTT+Montgomery at plan build so a
// giant block's inner sum is one lazy inner product per limb, and the
// partial sums folded in by Horner's rule, √n giant steps that all rotate
// by n1 under one key — O(√n) key-switches instead of the naive n−1 under
// n1 ≈ √n keys. The kernel never leaves the NTT domain between its own stages: key switches come
// down from QP there (ring.Tower.ModDownNTT), rotations are gathers, and
// one inverse transform per limb precedes the rescale — 282 limb
// transforms for the served 256×256 at two limbs (4 input + 4 hoist +
// 15·6 babies + 15·12 giants + 4 output); at three limbs, 441 against the
// 624 (12 + 6 + 15·14 + 16·6 + 15·20) of the coefficient-domain
// composition it is bit-identical to. The evaluator's matvec scratch is
// the one place a ciphertext sits in the NTT domain between stages; it is
// never returned.
// Every inner product here and in the key switch is a ring.LazySum: one
// Montgomery reduction per sum instead of one per term. Versus
// production CKKS (SEAL / Lattigo / OpenFHE) there is still no
// bootstrapping; the package otherwise preserves the behaviour the
// paper's cost model (Eqs. 29/31) abstracts: slot-wise encrypted
// arithmetic whose cost grows with the limb count L, the polynomial
// degree λ = N, and log₂N.
//
// # Evaluation form
//
// A ciphertext that is only ever multiplied by public plaintexts — the
// transciphering key a session holds for its whole epoch — need not be
// transformed on every use. Context.EvalFormInto validates such a
// ciphertext (level, limb count, degree, every residue below its prime:
// it is the trust-boundary check for uploaded key ciphertexts) and moves
// every limb of c0 and c1 into the NTT domain and Montgomery form, in
// place or into a caller's buffer, tagging the result
// (Ciphertext.IsEvalForm). Evaluator.LinearFormInto is the form's one
// consumer: Σ_j pt_j·ct_j with each plaintext reduced and transformed
// once per limb, folded into two lazy inner products, and two inverse
// transforms per limb at the end — bit-identical to the
// MulPlainInto/AddInto chain at (k+2)/(5k) of its transforms. The owner
// of the ciphertext converts, once (internal/transcipher.InstallKey for a
// served key); nothing else may consume the result, because its limbs no
// longer hold coefficients: every other evaluator operation returns
// ErrEvalForm, and Decrypt, HoistInto and the wire codec — which have no
// error to return — panic with it. The tag is unexported, so no decoder
// can forge it.
//
// # Performance conventions
//
// Key material lives per limb in the NTT domain and Montgomery form (see
// keys.go), the evaluator keeps per-instance scratch towers and offers
// Into variants of every hot operation that allocate no buffer, and
// per-limb work fans out through ring.ForEach — for ring degrees ≥
// ring.ParallelMinN, onto helpers from the bounded worker pool while a
// core is idle, at the cost of the one closure the call is handed (the
// fan-out itself is recycled). Secrets and errors are sampled as small
// integers once per coefficient and reduced into every limb, so RNG
// stream order is independent of both the limb count and the execution
// strategy.
package ckks
