// Package quhe is the root of a from-scratch Go reproduction of
//
//	"QuHE: Optimizing Utility-Cost in Quantum Key Distribution and
//	 Homomorphic Encryption Enabled Secure Edge Computing Networks"
//	(Qian, Li, Zhao — ICDCS 2025, arXiv:2507.06086).
//
// The implementation lives under internal/:
//
//   - internal/core        — problem P1 and the QuHE algorithm (Algs. 1–4)
//   - internal/qnet        — SURFnet QKD network model and simulator
//   - internal/qkd         — BB84/BBM92 protocols and the key centre
//   - internal/optimize    — barrier interior point, B&B, heuristics
//   - internal/wireless    — uplink channel, FDMA, Shannon rates
//   - internal/costmodel   — the paper's delay/energy/security formulas,
//     used by the reproduction (serving prices blocks in
//     internal/he/profile and reads only f_msl from here)
//   - internal/chacha20    — RFC 8439 stream cipher
//   - internal/he/...      — polynomial rings, CKKS, LWE security estimation.
//     The ring arithmetic core is division-free: Montgomery/Barrett
//     reduction with precomputed per-modulus constants, lazy-reduction
//     NTT/INTT with Montgomery-form twiddle tables, and zero-allocation
//     Into variants of the hot polynomial and evaluator operations (see
//     internal/he/ring's package comment for the reduction design).
//     CKKS key material is stored in the NTT domain so evaluator hot
//     paths never transform keys per operation.
//   - internal/transcipher — HE-friendly cipher and homomorphic decryption,
//     with per-worker Scratch buffers for the serving hot path
//   - internal/serve       — multi-tenant serving runtime: one exact-LRU
//     session table, shared evaluator pool, bounded scheduler with
//     typed backpressure, QKD-epoch session state
//   - internal/edge        — TCP edge runtime running the full pipeline
//     over internal/serve: one framed, checksummed wire protocol
//     (pooled buffers, windowed pipelining, request IDs, rekeying,
//     typed error codes) with per-block ops served from a table
//   - internal/experiments — regenerators for every table and figure in §VI
//
// Entry points: cmd/quhe (experiment runner), cmd/qkdsim (network
// simulator), cmd/lwe-estimator (security estimator), the served-stack
// benchmark (go run ./benchmark), and the runnable walkthroughs under
// examples/.
package quhe

// Version identifies this reproduction's release.
const Version = "1.0.0"
