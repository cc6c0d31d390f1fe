// Package qkd simulates the quantum key distribution layer of the QuHE
// system (§III-A.1): BB84 and entanglement-based BBM92 key exchange over
// noisy channels (with optional intercept-resend eavesdropping), sifting,
// QBER estimation, parity-bisection error reconciliation, SHA-256 privacy
// amplification, and a concurrent KeyCenter that provisions per-client key
// pools at the rates chosen by Stage 1 of the QuHE algorithm.
package qkd

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"quhe/internal/qnet"
)

// Protocol selects the simulated QKD protocol.
type Protocol int

const (
	// BB84 is prepare-and-measure over a depolarizing channel.
	BB84 Protocol = iota + 1
	// BBM92 is entanglement-based: both parties measure halves of Werner
	// pairs; QBER = (1−w)/2.
	BBM92
)

// AbortThreshold is the QBER above which the exchange aborts: beyond
// ~11% the BB84 asymptotic key fraction 1−2h2(e) is non-positive.
const AbortThreshold = 0.11

// ErrAborted reports a QBER above threshold (channel too noisy or an
// eavesdropper present).
var ErrAborted = errors.New("qkd: estimated QBER above abort threshold")

// sampleFrac is the fraction of sifted bits sacrificed for QBER
// estimation.
const sampleFrac = 0.25

// ExchangeConfig parameterizes one key exchange.
type ExchangeConfig struct {
	// Protocol selects BB84 (default) or BBM92.
	Protocol Protocol
	// RawBits is the number of transmitted qubits/pairs. Default 4096.
	RawBits int
	// QBER is the intrinsic channel error rate for BB84 (ignored for
	// BBM92, which derives it from Werner).
	QBER float64
	// Werner is the end-to-end Werner parameter for BBM92.
	Werner float64
	// Eavesdrop enables an intercept-resend attacker on every qubit,
	// which adds ~25% errors on sifted bits.
	Eavesdrop bool
	// Seed drives all randomness; 0 selects a fixed default.
	Seed int64
}

func (c ExchangeConfig) defaults() ExchangeConfig {
	if c.Protocol == 0 {
		c.Protocol = BB84
	}
	if c.RawBits <= 0 {
		c.RawBits = 4096
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ExchangeResult reports a completed (or aborted) key exchange.
type ExchangeResult struct {
	// Key is the final shared secret (nil if aborted). Both parties hold
	// identical copies — the simulation verifies this.
	Key []byte
	// SiftedBits is the number of basis-matched bits.
	SiftedBits int
	// EstimatedQBER is the sampled error estimate; TrueQBER the actual
	// error rate on the sifted key (known to the simulator only).
	EstimatedQBER float64
	TrueQBER      float64
	// LeakedBits counts reconciliation parity disclosures, subtracted
	// during privacy amplification.
	LeakedBits int
	// SecretFraction is 1−h2(e): the fraction remaining after removing
	// Eve's channel information. The reconciliation cost is charged
	// separately through LeakedBits (together they realize the paper's
	// asymptotic 1−2h2(e) net rate, with the EC term measured rather
	// than bounded).
	SecretFraction float64
}

// Exchange runs one simulated key exchange between Alice and Bob.
func Exchange(cfg ExchangeConfig) (ExchangeResult, error) {
	c := cfg.defaults()
	var res ExchangeResult
	rng := rand.New(rand.NewSource(c.Seed))

	qber := c.QBER
	if c.Protocol == BBM92 {
		if c.Werner <= 0 || c.Werner > 1 {
			return res, fmt.Errorf("qkd: BBM92 requires Werner in (0,1], got %g", c.Werner)
		}
		qber = qnet.QBER(c.Werner)
	}
	if qber < 0 || qber > 0.5 {
		return res, fmt.Errorf("qkd: QBER %g outside [0, 0.5]", qber)
	}

	// Quantum phase: random bits/bases; Bob keeps basis-matched ones.
	var aliceSift, bobSift []byte
	for i := 0; i < c.RawBits; i++ {
		bit := byte(rng.Intn(2))
		aliceBasis := rng.Intn(2)

		transmitted := bit
		basisKnownToEve := false
		if c.Eavesdrop {
			// Intercept-resend: Eve measures in a random basis and
			// re-prepares. Wrong basis (half the time) randomizes Bob's
			// result in Alice's basis.
			eveBasis := rng.Intn(2)
			basisKnownToEve = eveBasis == aliceBasis
			if !basisKnownToEve {
				transmitted = byte(rng.Intn(2))
			}
		}

		bobBasis := rng.Intn(2)
		if bobBasis != aliceBasis {
			continue // sifted away
		}
		received := transmitted
		if c.Eavesdrop && !basisKnownToEve {
			// Bob measures Eve's wrong-basis state: random outcome.
			received = byte(rng.Intn(2))
		}
		// Channel noise.
		if rng.Float64() < qber {
			received ^= 1
		}
		aliceSift = append(aliceSift, bit)
		bobSift = append(bobSift, received)
	}
	res.SiftedBits = len(aliceSift)
	if res.SiftedBits < 64 {
		return res, fmt.Errorf("qkd: only %d sifted bits, need ≥ 64", res.SiftedBits)
	}

	// Parameter estimation: sacrifice a random sample.
	sample := rng.Perm(res.SiftedBits)[:int(sampleFrac*float64(res.SiftedBits))]
	inSample := make(map[int]bool, len(sample))
	errs := 0
	for _, idx := range sample {
		inSample[idx] = true
		if aliceSift[idx] != bobSift[idx] {
			errs++
		}
	}
	res.EstimatedQBER = float64(errs) / float64(len(sample))

	var aliceKey, bobKey []byte
	for i := 0; i < res.SiftedBits; i++ {
		if !inSample[i] {
			aliceKey = append(aliceKey, aliceSift[i])
			bobKey = append(bobKey, bobSift[i])
		}
	}
	trueErrs := 0
	for i := range aliceKey {
		if aliceKey[i] != bobKey[i] {
			trueErrs++
		}
	}
	res.TrueQBER = float64(trueErrs) / float64(len(aliceKey))

	if res.EstimatedQBER > AbortThreshold {
		return res, fmt.Errorf("%w: estimated %.3f", ErrAborted, res.EstimatedQBER)
	}

	// Reconciliation: Bob corrects toward Alice via parity bisection.
	res.LeakedBits = reconcile(aliceKey, bobKey, math.Max(res.EstimatedQBER, 0.01), rng)

	// Privacy amplification: compress by Eve's channel information h2(e)
	// and the measured reconciliation leakage.
	res.SecretFraction = 1 - qnet.BinaryEntropy(math.Min(math.Max(res.EstimatedQBER, res.TrueQBER), 0.5))
	if res.SecretFraction <= 0 {
		return res, fmt.Errorf("%w: secret fraction non-positive", ErrAborted)
	}
	finalBits := int(res.SecretFraction*float64(len(aliceKey))) - res.LeakedBits
	if finalBits < 64 {
		return res, fmt.Errorf("%w: only %d final bits", ErrAborted, finalBits)
	}
	aliceFinal := amplify(aliceKey, finalBits)
	bobFinal := amplify(bobKey, finalBits)
	for i := range aliceFinal {
		if aliceFinal[i] != bobFinal[i] {
			return res, errors.New("qkd: reconciliation failed — final keys disagree")
		}
	}
	res.Key = aliceFinal
	return res, nil
}

// reconcile runs cascade-style parity bisection passes, flipping Bob's
// erroneous bits until his key matches Alice's. It returns the number of
// parity bits disclosed. alice is read-only; bob is corrected in place.
func reconcile(alice, bob []byte, qber float64, rng *rand.Rand) (leaked int) {
	n := len(bob)
	blockLen := int(0.73 / qber)
	if blockLen < 4 {
		blockLen = 4
	}
	if blockLen > n {
		blockLen = n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// A block holding an even number of errors has matching parity and is
	// invisible within a pass; each reshuffle splits such pairs with high
	// probability, so enough passes converge to equality essentially
	// always (Exchange still verifies the final keys).
	for pass := 0; pass < 40; pass++ {
		if pass > 0 {
			rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
			if pass <= 3 && blockLen < n/2 {
				blockLen *= 2
			}
		}
		for start := 0; start < n; start += blockLen {
			end := start + blockLen
			if end > n {
				end = n
			}
			leaked += bisectFix(alice, bob, order[start:end])
		}
		// Early exit when already equal.
		if equalBits(alice, bob) {
			break
		}
	}
	return leaked
}

// bisectFix compares block parity and binary-searches one error when the
// parities differ. Returns parity bits disclosed.
func bisectFix(alice, bob []byte, idx []int) (leaked int) {
	parity := func(key []byte, ids []int) byte {
		var p byte
		for _, i := range ids {
			p ^= key[i]
		}
		return p
	}
	leaked = 1
	if parity(alice, idx) == parity(bob, idx) {
		return leaked
	}
	for len(idx) > 1 {
		mid := len(idx) / 2
		leaked++
		if parity(alice, idx[:mid]) != parity(bob, idx[:mid]) {
			idx = idx[:mid]
		} else {
			idx = idx[mid:]
		}
	}
	bob[idx[0]] ^= 1
	return leaked
}

func equalBits(a, b []byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// amplify hashes the reconciled bit string down to outBits bits of final
// key (SHA-256 in counter mode as a randomness extractor).
func amplify(bits []byte, outBits int) []byte {
	packed := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b == 1 {
			packed[i/8] |= 1 << uint(i%8)
		}
	}
	outBytes := (outBits + 7) / 8
	out := make([]byte, 0, outBytes)
	var counter [8]byte
	for block := 0; len(out) < outBytes; block++ {
		binary.LittleEndian.PutUint64(counter[:], uint64(block))
		h := sha256.New()
		h.Write(counter[:])
		h.Write(packed)
		out = h.Sum(out)
	}
	out = out[:outBytes]
	// Mask unused trailing bits for an exact bit count.
	if rem := outBits % 8; rem != 0 {
		out[outBytes-1] &= byte(1<<uint(rem)) - 1
	}
	return out
}
