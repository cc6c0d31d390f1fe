package ckks

import (
	"fmt"

	"quhe/internal/he/ring"
)

// Params fixes a CKKS instance.
type Params struct {
	// LogN is log2 of the ring degree (the paper's λ is N = 2^LogN).
	LogN int
	// BaseBits is the size of the bottom prime q_0, which must hold the
	// final scaled message.
	BaseBits int
	// ScaleBits is the size of each rescaling prime; the encoding scale Δ
	// defaults to 2^ScaleBits.
	ScaleBits int
	// Depth is the number of rescaling primes (supported multiplications).
	Depth int
	// Sigma is the error standard deviation (3.2 by convention).
	Sigma float64
	// SpecialBits is the size of the special prime P that hybrid key
	// switching extends the basis with; P must dominate every chain prime
	// (SpecialBits ≥ BaseBits) so the key-switch noise divides away.
	SpecialBits int
}

// NewParams assembles a parameter set, applying σ=3.2 and a 61-bit special
// prime.
func NewParams(logN, baseBits, scaleBits, depth int) (Params, error) {
	p := Params{
		LogN: logN, BaseBits: baseBits, ScaleBits: scaleBits, Depth: depth,
		Sigma: 3.2, SpecialBits: 61,
	}
	return p, p.Validate()
}

// N returns the ring degree.
func (p Params) N() int { return 1 << p.LogN }

// Slots returns the number of complex slots (N/2).
func (p Params) Slots() int { return 1 << (p.LogN - 1) }

// Scale returns the default encoding scale Δ = 2^ScaleBits.
func (p Params) Scale() float64 { return float64(uint64(1) << uint(p.ScaleBits)) }

// Validate checks internal consistency.
func (p Params) Validate() error {
	if p.LogN < 3 || p.LogN > 15 {
		return fmt.Errorf("ckks: logN = %d outside [3, 15]", p.LogN)
	}
	if p.BaseBits < 20 || p.BaseBits > 60 {
		return fmt.Errorf("ckks: baseBits = %d outside [20, 60]", p.BaseBits)
	}
	if p.Depth < 0 || p.Depth > 8 {
		return fmt.Errorf("ckks: depth = %d outside [0, 8]", p.Depth)
	}
	if p.Depth > 0 && (p.ScaleBits < 15 || p.ScaleBits > p.BaseBits) {
		return fmt.Errorf("ckks: scaleBits = %d outside [15, baseBits=%d]", p.ScaleBits, p.BaseBits)
	}
	if p.Sigma <= 0 {
		return fmt.Errorf("ckks: sigma %g must be positive", p.Sigma)
	}
	if p.SpecialBits < p.BaseBits || p.SpecialBits > 61 {
		return fmt.Errorf("ckks: specialBits = %d outside [baseBits=%d, 61]", p.SpecialBits, p.BaseBits)
	}
	return nil
}

// Context holds the realized residue tower: Primes[0] is the base prime,
// Primes[1..Depth] the rescaling primes, Special the hybrid key-switch
// prime P, and Tower the per-limb NTT contexts plus the exact-division
// tables. A level-ℓ object carries limbs 0..ℓ. Contexts are immutable and
// safe to share.
type Context struct {
	Params  Params
	Primes  []uint64
	Special uint64
	Tower   *ring.Tower

	// qp[l] is the extended basis a switching key for level l spans: chain
	// primes 0..l, then Special (read-only).
	qp [][]uint64
	// The levels the context's relinearization and Galois keys are built
	// for; see WithKeyLevels.
	relinLevel, galoisLevel int
	// fft holds the encoder's transform tables (read-only).
	fft *specialFFT
}

// NewContext searches the chain and special primes and builds the tower.
// Its switching keys are built for the top level, which serves every
// level; WithKeyLevels narrows them to the levels an application's ops
// switch at.
func NewContext(p Params) (*Context, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	bitLens := make([]int, 0, p.Depth+2)
	bitLens = append(bitLens, p.BaseBits)
	for i := 0; i < p.Depth; i++ {
		bitLens = append(bitLens, p.ScaleBits)
	}
	bitLens = append(bitLens, p.SpecialBits)
	primes, err := ring.FindNTTPrimesDistinct(bitLens, n)
	if err != nil {
		return nil, fmt.Errorf("ckks: prime chain: %w", err)
	}
	chain, special := primes[:p.Depth+1:p.Depth+1], primes[p.Depth+1]
	tower, err := ring.NewTower(n, chain, special)
	if err != nil {
		return nil, fmt.Errorf("ckks: tower: %w", err)
	}
	qp := make([][]uint64, len(chain))
	for l := range qp {
		qp[l] = append(chain[:l+1:l+1], special)
	}
	top := len(chain) - 1
	return &Context{Params: p, Primes: chain, Special: special, Tower: tower, qp: qp, relinLevel: top, galoisLevel: top, fft: newSpecialFFT(p.Slots())}, nil
}

// WithKeyLevels returns a context over the same tower whose
// relinearization key is built for level relin and whose Galois keys for
// level galois: the levels the ops it serves key-switch at. A key for
// level l spans l+1 digits × l+2 QP limbs (KeyGenerator.GenRelinKey), is
// refused at any other width by CheckSwitchingKey, and switches a
// ciphertext at any level up to l.
func (c *Context) WithKeyLevels(relin, galois int) (*Context, error) {
	for _, l := range []int{relin, galois} {
		if l < 0 || l > c.MaxLevel() {
			return nil, fmt.Errorf("ckks: key level %d outside [0, %d]", l, c.MaxLevel())
		}
	}
	out := *c
	out.relinLevel, out.galoisLevel = relin, galois
	return &out, nil
}

// RelinLevel is the level the context's relinearization key is built for.
func (c *Context) RelinLevel() int { return c.relinLevel }

// GaloisLevel is the level the context's Galois keys are built for.
func (c *Context) GaloisLevel() int { return c.galoisLevel }

// Limb returns the NTT context of chain prime q_i.
func (c *Context) Limb(i int) *ring.Modulus { return c.Tower.Qi[i] }

// MaxLevel is the top level index.
func (c *Context) MaxLevel() int { return len(c.Primes) - 1 }

// NewCiphertext allocates a zero ciphertext at the given level (scale 0;
// callers set it).
func (c *Context) NewCiphertext(level int) *Ciphertext {
	return &Ciphertext{
		C0:    c.Tower.NewPoly(level + 1),
		C1:    c.Tower.NewPoly(level + 1),
		Level: level,
	}
}

// Plaintext is an encoded message: limbs 0..Level of a ring polynomial at
// a scale.
type Plaintext struct {
	Value ring.RNSPoly
	Scale float64
	Level int
}

// Ciphertext is a degree-1 RLWE ciphertext (c0, c1) at a scale and level,
// decrypting to c0 + c1·s on limbs 0..Level.
type Ciphertext struct {
	C0, C1 ring.RNSPoly
	Scale  float64
	Level  int
	// evalForm marks a ciphertext whose limbs Context.EvalFormInto moved
	// to the NTT domain in Montgomery form (see evalform.go). Unexported so
	// no codec can carry or set it: only a validated in-process
	// conversion produces an evaluation-form ciphertext.
	evalForm bool
}

// IsEvalForm reports whether ct is in evaluation form — the resident
// representation of a multiplicand consumed only by
// Evaluator.LinearFormInto. Every other operation rejects it.
func (ct *Ciphertext) IsEvalForm() bool { return ct.evalForm }

// DropTo lowers a coefficient-form ct to the given level in place by
// slicing off the limbs above it: the modulus switch down the chain that
// keeps the scale. Limb i of a level-ℓ ciphertext is already its residue
// mod q_i, so ct decrypts to the same integer message at the lower level
// whenever that message fits there (|m|·Scale < q_0/2 at level 0); the
// dropped limbs' storage stays behind the slices.
func (ct *Ciphertext) DropTo(level int) error {
	if ct.evalForm {
		return ErrEvalForm
	}
	if level < 0 || level > ct.Level {
		return fmt.Errorf("ckks: cannot drop a level-%d ciphertext to level %d", ct.Level, level)
	}
	ct.C0, ct.C1, ct.Level = ct.C0[:level+1], ct.C1[:level+1], level
	return nil
}

// Copy returns an independent copy (in the same form).
func (ct *Ciphertext) Copy() *Ciphertext {
	return &Ciphertext{C0: ct.C0.Copy(), C1: ct.C1.Copy(), Scale: ct.Scale, Level: ct.Level, evalForm: ct.evalForm}
}
