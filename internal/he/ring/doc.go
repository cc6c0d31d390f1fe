// Package ring implements negacyclic polynomial arithmetic in
// R_q = Z_q[X]/(X^N + 1): single-modulus building blocks (division-free
// Montgomery/Barrett reduction, the lazy negacyclic NTT, schoolbook
// multiplication as the testing oracle, and the uniform/ternary/Gaussian
// samplers CKKS needs) plus the residue-number-system tower that composes
// them into a multi-prime modulus chain.
//
// # Residue-tower layout
//
// An RNSPoly is a [][]uint64: one limb per chain prime q_i, limb i holding
// the polynomial's coefficients reduced mod q_i. The represented value is
// the CRT combination of the limbs — Q = Πq_i can exceed 64 bits without
// any coefficient ever leaving uint64. A Tower owns the per-prime NTT
// contexts (Qi for the chain, P for the optional special prime hybrid key
// switching uses) and the precomputed cross-limb constants of the exact
// division steps.
//
// Limb ownership rules: limb i belongs to modulus Qi[i] and is only ever
// touched with that modulus's methods; cross-limb data flow happens in
// exactly three places — RescaleInto and ModDownInto/ModDownNTT (which
// read one donor limb and fold its centered remainder into every other
// limb) and CenteredFloat (which CRT-combines the first two limbs for
// decoding).
// Because limbs are otherwise independent, per-limb work fans out through
// ForEach, the package's one fan-out primitive (Tower.ForEachLimb is its
// limb-count form): the caller and helpers on idle cores claim limbs from
// one shared counter, and no helper joins while fan-out work already
// fills GOMAXPROCS cores. Calls must not share mutable state across limbs.
//
// # Montgomery domain invariants
//
// Each limb is, independently, either in the coefficient domain or the NTT
// domain, and either in plain or Montgomery form (·2⁶⁴ mod q). The
// conventions the CKKS layer relies on:
//
//   - Key material is stored NTT + Montgomery, so a fused
//     MulCoeffwiseMontgomery of a plain-NTT operand with a key limb yields
//     a plain-NTT product with one MRed per coefficient — and an inner
//     product of such pairs (LazySum) a plain-NTT sum with one MRed per
//     coefficient for the whole sum.
//   - MRed of two Montgomery-form operands stays in Montgomery form
//     (used to square the secret for relinearization keys).
//   - All limbs of one RNSPoly are kept in the same domain at all times;
//     there is no per-limb domain tracking.
//
// # Lazy inner products
//
// Every Σ_i a_i ⊙ b_i in the tree — key-switch digit folds, hoisted
// rotation gathers, linear forms over an evaluation-form key, matvec
// diagonal sums — goes through one primitive, LazySum (lazysum.go): the
// raw 128-bit products are added with carry into a high and a low row and
// Montgomery-reduced once per sum, not once per term. Precondition: every
// operand coefficient a, b < q (NTT output, MForm output and validated key
// material all are), so a term is below q² and ⌊2⁶⁴/q⌋ of them
// (Modulus.LazySumTerms: 8 at 61 bits, 16 at 60, 2¹⁴ at 50) stay below
// q·2⁶⁴, the range MRed accepts; a longer sum is reduced per chunk of that
// many terms and the residues added. The result is the same canonical
// residue in [0, q) the per-term MRed + AddMod chain gives, so kernels
// built on it are bit-identical to the strict composition — the property
// tests drive it with every residue at q−1 at exactly the bound and past
// it, against math/big.
//
// # Rescale semantics
//
// RescaleInto implements the exact RNS rescale: dropping the last limb
// q_ℓ computes (x − [x]_{q_ℓ})/q_ℓ on the remaining limbs, where [·] is
// the centered remainder, i.e. round(x/q_ℓ) with only 64-bit residue
// arithmetic (a Barrett reduction of the donor limb, a conditional
// correction by q_ℓ mod q_i, and a Montgomery multiply by q_ℓ⁻¹ mod q_i
// per coefficient). ModDownInto is the same operation with the special
// prime P as donor, scaling hybrid key-switch accumulators from the
// extended basis QP back to Q. Both are exact integer identities — the
// property tests check them coefficient-for-coefficient against a big.Int
// CRT reference. ModDownNTT is ModDownInto for data that stays in the NTT
// domain: the division is linear, so only the donor limb is
// inverse-transformed, its centered residue is forward-transformed per
// chain limb, and the subtraction and the P⁻¹ scaling happen pointwise —
// the exact NTT image of ModDownInto's output.
//
// # Galois automorphisms
//
// The maps X → X^g (g odd) permute the negacyclic ring and are the
// substrate of CKKS slot rotations (galois.go): ApplyAutomorphismNTT
// applies σ_g directly on NTT-domain limbs as a gather through a
// precomputed index table (AutomorphismNTTTable), so a rotation costs one
// pass over the coefficients — the sign fixups of the coefficient-domain
// map (AutomorphismCoeffs) fold into the table. GaloisElement maps a slot
// rotation count to its generator power 5^k mod 2N, and
// LazySum.MulAddGather gathers straight into a key-switch inner product.
//
// # Single-modulus substrate
//
// N must be a power of two and q ≡ 1 (mod 2N) so a primitive 2N-th root of
// unity exists; FindNTTPrimes/FindNTTPrimesDistinct search for such
// primes. q < 2⁶² (enforced at construction) leaves the 4q < 2⁶⁴
// headroom the lazy NTT needs.
//
// A Modulus precomputes three constant sets at construction:
//
//   - qInv = q⁻¹ mod 2⁶⁴ — Montgomery constant, used by MRed/MRedLazy for
//     products where one operand is stored in Montgomery form (·2⁶⁴ mod q):
//     the ψ/ψ⁻¹ twiddle tables, scalar multipliers, and CKKS key material.
//   - brc = ⌊2¹²⁸/q⌋ — Barrett constant, used by BRed for plain-domain
//     products (MulCoeffwise) and BRedAdd for single-word reductions.
//   - Twiddle tables psiMont/psiInvMont in bit-reversed order and
//     Montgomery form, plus N⁻¹ (and N⁻¹·ψ⁻¹ for the folded last INTT
//     stage) in Montgomery form.
//
// Hot loops therefore never execute a hardware division; bits.Rem64 remains
// only in the stateless helpers (MulMod, PowMod) used at construction time
// and as the property-test oracle.
//
// The transform (ntt.go) is radix 4: each pass over a limb runs two
// butterfly stages — four quarter-slices of a block, three twiddles, the
// values between the two stages staying in registers — so a limb is loaded
// and stored ⌈log N / 2⌉ times. The two stages at quarter length 1 run as
// straight-line code over contiguous quads; the forward transform reduces
// to [0, q) inside that last pass and the inverse folds N⁻¹ into its last
// stage, so neither makes a separate sweep. An odd log N leaves one radix-2
// stage, run where it has a single twiddle: first forward, last inverse.
// Between butterflies coefficients stay lazily reduced — [0, 4q) forward,
// [0, 2q) inverse — through the same butterfly, in the same order per
// coefficient, as a one-stage-per-pass loop, so outputs are bit-identical
// to the strict division-based reference the tests keep.
//
// # Zero-allocation conventions
//
// Methods suffixed Into write into caller-provided buffers and perform no
// allocation in steady state. NTT-domain fused ops (MulCoeffwiseMontgomery,
// LazySum, ModDownNTT) let callers keep ciphertext material in the
// transform domain across an operation chain and reduce transform counts.
// The allocating variants (UniformPoly, ...) remain as convenience
// wrappers.
package ring
