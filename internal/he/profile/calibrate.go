package profile

import (
	"fmt"
	"time"

	"quhe/internal/he/ckks"
	"quhe/internal/transcipher"
)

// Calibrate measures the profile's real per-block serving cost — one
// transcipher-and-infer operation (the edge server's unit of work) on the
// profile's parameters — and installs it as the profile's cost
// coefficient, expressed in cycles at RefHz so it remains comparable to
// the modeled value. keyLen is the transciphering key length of the
// runtime being calibrated for (edge.KeyLen). The minimum of rounds runs
// is kept, which discards scheduler noise; rounds below 1 default to 3.
//
// Calibration is deliberately not run by servers at startup — it costs a
// key generation per profile — but by benchmarks, load generators and
// experiments that want the control plane planning against measured
// rather than modeled coefficients.
func (p *Profile) Calibrate(keyLen, rounds int) (time.Duration, error) {
	if rounds < 1 {
		rounds = 3
	}
	ctx, err := p.Context()
	if err != nil {
		return 0, fmt.Errorf("profile: calibrate %s: %w", p.ID, err)
	}
	cipher, err := transcipher.New(ctx, keyLen)
	if err != nil {
		return 0, fmt.Errorf("profile: calibrate %s: %w", p.ID, err)
	}
	kg := ckks.NewKeyGenerator(ctx, 0x5ca1e)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	ev := ckks.NewEvaluator(ctx, 0x5ca1f)
	key, err := cipher.DeriveKey([]byte("profile-calibration"))
	if err != nil {
		return 0, fmt.Errorf("profile: calibrate %s: %w", p.ID, err)
	}
	encKey, err := cipher.EncryptKey(ev, pk, key)
	if err != nil {
		return 0, fmt.Errorf("profile: calibrate %s: %w", p.ID, err)
	}
	// A served block reads the key a session holds: installed once at
	// Setup/Rekey, outside the per-block cost being measured.
	if err := cipher.InstallKey(encKey); err != nil {
		return 0, fmt.Errorf("profile: calibrate %s: %w", p.ID, err)
	}
	nonce := []byte("profile-cal-")
	data := make([]float64, cipher.Slots())
	for i := range data {
		data[i] = 0.25
	}
	weights := []float64{0.5}
	bias := []float64{0.1}
	scratch := cipher.NewScratch()

	best := time.Duration(0)
	for r := 0; r < rounds; r++ {
		masked, err := cipher.Mask(key, nonce, uint32(r), data)
		if err != nil {
			return 0, fmt.Errorf("profile: calibrate %s: %w", p.ID, err)
		}
		start := time.Now()
		if _, err := cipher.TranscipherAffineWith(scratch, ev, rlk, encKey, nonce,
			uint32(r), masked, weights, bias); err != nil {
			return 0, fmt.Errorf("profile: calibrate %s: %w", p.ID, err)
		}
		elapsed := time.Since(start)
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	p.SetMeasuredCyclesPerBlock(best.Seconds() * RefHz)
	return best, nil
}

// CalibrateRotations measures the profile's real per-rotation cost — one
// hoisted Galois rotation (the BSGS matvec kernel's unit of extra work
// per matrix term) on the profile's parameters — and installs it as the
// per-rotation cost coefficient in cycles at RefHz. The hoisted
// decomposition is done once outside the timed region, exactly as the
// kernel amortizes it, so the coefficient prices the marginal rotation,
// not the shared ModUp. The minimum over rounds·rotations timings is
// kept; rounds below 1 default to 3.
func (p *Profile) CalibrateRotations(rounds int) (time.Duration, error) {
	if rounds < 1 {
		rounds = 3
	}
	ctx, err := p.Context()
	if err != nil {
		return 0, fmt.Errorf("profile: calibrate rotations %s: %w", p.ID, err)
	}
	kg := ckks.NewKeyGenerator(ctx, 0x5ca20)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	// A small representative rotation set: the timed cost of a hoisted
	// rotation is rotation-independent (same gather-MAC and ModDown work
	// for every Galois element), so a handful suffice.
	rots := []int{1, 2, 4}
	gks := kg.GenGaloisKeys(sk, rots)
	ev := ckks.NewEvaluator(ctx, 0x5ca21)
	enc := ckks.NewEncoder(ctx)
	data := make([]float64, p.Slots())
	for i := range data {
		data[i] = 0.25
	}
	pt, err := enc.EncodeReal(data, p.Params.Scale())
	if err != nil {
		return 0, fmt.Errorf("profile: calibrate rotations %s: %w", p.ID, err)
	}
	ct := ev.Encrypt(pk, pt)
	h := ev.NewHoisted()
	ev.HoistInto(h, ct)
	out := ctx.NewCiphertext(ct.Level)
	best := time.Duration(0)
	for r := 0; r < rounds; r++ {
		for _, rot := range rots {
			start := time.Now()
			if err := ev.RotateHoistedInto(h, rot, gks, out); err != nil {
				return 0, fmt.Errorf("profile: calibrate rotations %s: %w", p.ID, err)
			}
			elapsed := time.Since(start)
			if best == 0 || elapsed < best {
				best = elapsed
			}
		}
	}
	p.SetMeasuredCyclesPerRotation(best.Seconds() * RefHz)
	return best, nil
}

// CalibrateAll calibrates every member of the registry — the per-block
// transcipher-and-infer coefficient and the per-rotation coefficient —
// returning the first error. Already-calibrated profiles are re-measured.
func (r *Registry) CalibrateAll(keyLen, rounds int) error {
	for _, p := range r.Profiles() {
		if _, err := p.Calibrate(keyLen, rounds); err != nil {
			return err
		}
		if _, err := p.CalibrateRotations(rounds); err != nil {
			return err
		}
	}
	return nil
}
