// Package profile is the security-profile registry of the QuHE serving
// stack: it maps the paper's discrete CKKS degree set λ ∈ {2^15, 2^16,
// 2^17} (Eq. 17d) to validated, runnable CKKS parameter sets with
// per-operation cost coefficients, so the control plane's λ choice can be
// actuated as real ciphertext parameters instead of only feeding the cost
// model.
//
// Each Profile pairs the paper-scale λ it models (the value f_msl, Eq. 30,
// is evaluated at) with a scaled-down ckks.Params the repository can
// actually run (LogN 10–12 instead of 15–17, preserving the relative
// ordering of security level and compute cost). Every profile carries an
// honest multi-limb residue tower — a 60-bit base prime, one 50-bit
// rescaling prime per level its deepest served op consumes (servedDepth:
// three, log QP = 60 + 3·50 + 61 = 271) and a 61-bit special prime for
// hybrid key switching — so the λ choice actuates real RNS chains, not
// single-modulus stand-ins, and no limb is carried that no op reaches.
// NewRegistry refuses a profile shallower than that. Contexts are built
// lazily and cached per profile — prime search and NTT-table construction
// happen once per process, and every server, client and worker pool over
// the same profile shares one immutable context.
//
// This package is the one place a served block is priced. BlockCycles is
// an a·L·N·log2(N) model of the per-limb NTT-bound work — the
// transcipher-and-infer base plus one key switch per hoisted rotation —
// with constants fitted to the repository's own evaluator. The edge
// server's ModeledCmpDelay reply fields, the controller's per-route λ
// choice (ServeDelaySec) and experiments.ProfileMix's CoeffMs all read it,
// so they are the same number. Profiles are immutable: Calibrate measures
// a block on the host and returns the measurement without installing it,
// so ProfileMix can show it beside the modeled price and nothing served
// after it in the process prices blocks differently. The planner needs no
// calibration: it already holds the model against the live per-profile
// p99 it measures on every served block.
package profile

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"quhe/internal/costmodel"
	"quhe/internal/he/ckks"
	"quhe/internal/transcipher"
)

// Built-in profile IDs, ordered by ascending security level. IDDefault is
// the profile every peer that skips profile negotiation is pinned to;
// both endpoints derive identical parameters from it, so key material and
// ciphertexts line up without carrying parameters on the wire.
const (
	IDLambda32k  = "lambda-32k"
	IDLambda64k  = "lambda-64k"
	IDLambda128k = "lambda-128k"

	IDDefault = IDLambda32k
)

// modeledCyclesPerLimbNLogN is the fitted constant a of the a·L·N·log2(N)
// per-block cost model, in CPU cycles at the reference 3.3 GHz clock of
// the paper's cost model. L = Depth+1 is the residue-tower limb count:
// every hot operation (NTT, coefficient-wise product, rescale) applies
// once per limb, so per-block cost is linear in the chain length at fixed
// N. Fitted against this repository's transcipher-and-infer operation as
// a session serves it — two fused NTT-domain linear forms over an
// installed (evaluation-form) key, 16 plaintext products in all (eight
// complex ones packing both quadratic factors, eight real ones for the
// linear term; each form a lazy inner product, one Montgomery reduction
// per sum), one squaring mul-relin, three rescales, 17 encodes — on the
// depth-4 chains the built-in profiles ran before they took servedDepth,
// at LogN 10–12. Calibrate's best-of-nine block time at RefHz over
// L·N·log2(N), best of eight alternating runs on the 2-core reference
// box, read 229, 225, 171 against 308, 330, 298 for the three real
// forms and general product it replaced, the same hour (0.74, 0.68, 0.57;
// medians of the eight 0.77, 0.66, 0.66). The box ran slower than when
// that operation was fitted at 255 against 249, 253, 198, so the
// constant is refit on that basis: 185, 172, 114, and a takes the upper,
// as it did there. (Earlier fits of the three-form operation: 300
// with the radix-2 transform, 410 before the lazy sums, 910 before the
// fused forms.) The model is per limb, so it carries over to the depth-3
// chains unrefit. Three ProfileMix runs of eight blocks per profile at
// each depth, the same hour: the calibrated measurement over mean client
// latency read 0.74–1.06 at depth 3 against 0.56–0.93 at depth 4, and the
// model over that latency 0.50–0.75 against 0.47–0.82.
const modeledCyclesPerLimbNLogN = 185.0

// RefHz is the reference server clock the cost coefficients are expressed
// against and every modeled serving delay is reported at (the paper's
// 3.3 GHz).
const RefHz = 3.3e9

// modeledRotCyclesPerLimbNLogN is the fitted constant of the per-rotation
// a·L·N·log2(N) cost model: one hoisted Galois rotation is one
// key-switch (digit products against the rotation key plus the inverse
// NTTs of the hoisted decomposition's recombination), so it scales like
// the transcipher's per-limb NTT work but with a much smaller constant —
// the hoisted decomposition is shared across the rotation set, leaving
// only the per-rotation inner products. Fitted against this repository's
// RotateHoistedInto on the built-in chains: best of fifteen at each
// profile's top level, at RefHz over L·N·log2(N), measured 21, 21, 18 on
// the 2-core reference box (23, 24, 22 the same hour with the radix-2
// transform, which held 28 against 26, 26, 24; 51, 50, 40 before the lazy
// gather sums — the 95 this constant held since PR 10 had gone stale by
// half already). A served 256×256 matvec at λ-128k spends 20 per rotation
// all-in (MatVecInto's 45 ms over its 30 rotations, diagonal sums and the
// unhoisted giant-step switches included; 26 with the radix-2 transform),
// so the constant sits at the upper of the two. On the depth-3 chain it
// reads 22 (BenchmarkMatVec ≈39 ms, against ≈54 ms, 24, for the depth-4
// chain the same hour), so the per-limb constant carries over unrefit.
const modeledRotCyclesPerLimbNLogN = 21.0

// servedDepth is the rescaling depth the deepest served op consumes: the
// transcipher's keystream layers, then the matvec kernel on its output.
// Every built-in profile runs exactly this deep (L = servedDepth+1 limbs),
// and NewRegistry refuses any profile shallower.
const servedDepth = transcipher.Levels + ckks.MatVecLevels

// Profile binds one of the paper's λ security levels to a runnable CKKS
// parameter set. Profiles are immutable after registration.
type Profile struct {
	// ID names the profile on the wire and in plans.
	ID string
	// Lambda is the paper-scale CKKS degree this profile models: f_msl is
	// evaluated at it.
	Lambda float64
	// Params is the runnable parameter set sessions on this profile use.
	Params ckks.Params

	ctxOnce sync.Once
	ctx     *ckks.Context
	ctxErr  error
}

// MSL returns f_msl(Lambda), the profile's security level in bits (Eq. 30).
func (p *Profile) MSL() float64 { return costmodel.MinSecurityLevel(p.Lambda) }

// Slots returns the per-block slot capacity of the runnable parameters.
func (p *Profile) Slots() int { return p.Params.Slots() }

// Context returns the profile's CKKS context, building it on first use and
// caching it for every later caller. Contexts are immutable and safe to
// share across servers, clients and pools.
func (p *Profile) Context() (*ckks.Context, error) {
	p.ctxOnce.Do(func() {
		p.ctx, p.ctxErr = ckks.NewContext(p.Params)
	})
	return p.ctx, p.ctxErr
}

// CyclesPerBlock returns the a·L·N·log2(N) cost model for one
// transcipher-and-infer block on this profile's parameters, in cycles at
// RefHz, with L the profile's residue-tower limb count.
func (p *Profile) CyclesPerBlock() float64 {
	n := float64(p.Params.N())
	l := float64(p.Params.Depth + 1)
	return modeledCyclesPerLimbNLogN * l * n * math.Log2(n)
}

// CyclesPerRotation returns the a·L·N·log2(N) cost model for one hoisted
// Galois rotation on this profile's parameters, in cycles at RefHz.
func (p *Profile) CyclesPerRotation() float64 {
	n := float64(p.Params.N())
	l := float64(p.Params.Depth + 1)
	return modeledRotCyclesPerLimbNLogN * l * n * math.Log2(n)
}

// BlockCycles prices one served block carrying the given number of hoisted
// Galois rotations, in cycles at RefHz: CyclesPerBlock for the
// transcipher-and-infer base plus CyclesPerRotation per rotation (the
// BSGS matvec kernel's rotation count; 0 for an affine block). Every
// modeled compute delay in the serving stack — reply fields and planner
// alike — is this number over a clock.
func (p *Profile) BlockCycles(rotations float64) float64 {
	return p.CyclesPerBlock() + rotations*p.CyclesPerRotation()
}

// ServeDelaySec models the serving delay of demandBytesPerSec of masked
// traffic on this profile: blocks are demand/(8·slots) per second, each
// costing BlockCycles(rotationsPerBlock) at serverHz.
func (p *Profile) ServeDelaySec(demandBytesPerSec, rotationsPerBlock, serverHz float64) float64 {
	if serverHz <= 0 {
		return math.Inf(1)
	}
	blocksPerSec := demandBytesPerSec / (8 * float64(p.Slots()))
	return blocksPerSec * p.BlockCycles(rotationsPerBlock) / serverHz
}

// Registry is an ordered, immutable set of profiles keyed by ID. The
// zero-cost reads on the serving hot path (Get) are map lookups on a map
// that is never mutated after construction.
type Registry struct {
	byID      map[string]*Profile
	order     []*Profile // ascending Lambda
	defaultID string
}

// NewRegistry assembles a registry from validated profiles; the first
// profile (after sorting by ascending λ) with the lowest λ becomes the
// default unless defaultID names another member. A profile shallower than
// servedDepth is refused: a session on it could not run every served op.
func NewRegistry(defaultID string, profiles ...*Profile) (*Registry, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("profile: empty registry")
	}
	r := &Registry{byID: make(map[string]*Profile, len(profiles))}
	for _, p := range profiles {
		if p.ID == "" {
			return nil, fmt.Errorf("profile: profile with empty ID")
		}
		if p.Lambda <= 0 {
			return nil, fmt.Errorf("profile: %s: non-positive λ %g", p.ID, p.Lambda)
		}
		if err := p.Params.Validate(); err != nil {
			return nil, fmt.Errorf("profile: %s: %w", p.ID, err)
		}
		if p.Params.Depth < servedDepth {
			return nil, fmt.Errorf("profile: %s: depth %d is shallower than the %d levels the served ops consume (transcipher %d, matvec %d)",
				p.ID, p.Params.Depth, servedDepth, transcipher.Levels, ckks.MatVecLevels)
		}
		if _, dup := r.byID[p.ID]; dup {
			return nil, fmt.Errorf("profile: duplicate ID %q", p.ID)
		}
		r.byID[p.ID] = p
		r.order = append(r.order, p)
	}
	sort.Slice(r.order, func(i, j int) bool { return r.order[i].Lambda < r.order[j].Lambda })
	if defaultID == "" {
		defaultID = r.order[0].ID
	}
	if _, ok := r.byID[defaultID]; !ok {
		return nil, fmt.Errorf("profile: default %q not in registry", defaultID)
	}
	r.defaultID = defaultID
	return r, nil
}

// Get looks a profile up by ID.
func (r *Registry) Get(id string) (*Profile, bool) {
	p, ok := r.byID[id]
	return p, ok
}

// DefaultID returns the default profile's ID (what empty negotiations and
// legacy peers resolve to).
func (r *Registry) DefaultID() string { return r.defaultID }

// Default returns the default profile.
func (r *Registry) Default() *Profile { return r.byID[r.defaultID] }

// IDs returns the member IDs in ascending-λ order.
func (r *Registry) IDs() []string {
	ids := make([]string, len(r.order))
	for i, p := range r.order {
		ids[i] = p.ID
	}
	return ids
}

// ByLambda returns the profile whose paper-scale λ matches exactly.
func (r *Registry) ByLambda(lambda float64) (*Profile, bool) {
	for _, p := range r.order {
		if p.Lambda == lambda {
			return p, true
		}
	}
	return nil, false
}

// logNFor maps a built-in profile ID to its scaled-down ring degree
// (LogN 10–12 standing in for the paper's 15–17).
func logNFor(id string) int {
	switch id {
	case IDLambda64k:
		return 11
	case IDLambda128k:
		return 12
	default:
		return 10
	}
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide built-in registry: the paper's three λ
// levels scaled to runnable ring degrees, sharing one cached context per
// profile across every caller. The default member (IDDefault) is what
// every peer that skips profile negotiation runs on.
func Default() *Registry {
	defaultOnce.Do(func() {
		mk := func(id string, lambda float64) *Profile {
			// Every profile runs a full-width residue tower: 60-bit base
			// prime, one 50-bit scale prime per served level (servedDepth
			// rescales) and the 61-bit special prime for hybrid key
			// switching. Only the ring degree varies with λ — the chain
			// shape is what production RNS-CKKS parameter sets look like,
			// and the wide scale keeps serving accuracy far beyond the
			// inference tolerance at every degree.
			params, err := ckks.NewParams(logNFor(id), 60, 50, servedDepth)
			if err != nil {
				panic("profile: invalid built-in params for " + id + ": " + err.Error())
			}
			return &Profile{ID: id, Lambda: lambda, Params: params}
		}
		reg, err := NewRegistry(IDDefault,
			mk(IDLambda32k, 32768),
			mk(IDLambda64k, 65536),
			mk(IDLambda128k, 131072),
		)
		if err != nil {
			panic("profile: built-in registry: " + err.Error())
		}
		defaultReg = reg
	})
	return defaultReg
}
