package profile

import (
	"fmt"
	"time"

	"quhe/internal/he/ckks"
	"quhe/internal/transcipher"
)

// Calibrate measures the profile's real per-block serving cost — one
// transcipher-and-infer operation (the edge server's unit of work) on the
// profile's parameters — and returns it. It installs nothing: the profile
// keeps pricing blocks with the model (see the package comment), and the
// measurement is for experiments that hold that model against the host.
// keyLen is the transciphering key length of the runtime being measured
// for (edge.KeyLen). The minimum of rounds runs is kept, which discards
// scheduler noise; rounds below 1 default to 3.
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
	return best, nil
}
