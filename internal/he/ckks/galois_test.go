package ckks

import (
	"errors"
	"math/rand"
	"testing"
)

// rotated returns z cyclically rotated left by r (any sign).
func rotated(z []complex128, r int) []complex128 {
	n := len(z)
	r = ((r % n) + n) % n
	out := make([]complex128, n)
	for i := range out {
		out[i] = z[(i+r)%n]
	}
	return out
}

// TestRotateRoundTrip is the end-to-end rotation contract: encode →
// encrypt → RotateInto by r → decrypt → decode must equal the input
// cyclically shifted left by r, within the key-switch noise bar.
func TestRotateRoundTrip(t *testing.T) {
	ctx := testContext(t)
	kg := NewKeyGenerator(ctx, 21)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	ev := NewEvaluator(ctx, 22)
	enc := NewEncoder(ctx)
	rng := rand.New(rand.NewSource(23))

	slots := ctx.Params.Slots()
	z := randomSlots(rng, slots)
	pt, err := enc.Encode(z, 0)
	if err != nil {
		t.Fatal(err)
	}
	ct := ev.Encrypt(pk, pt)

	rots := []int{0, 1, 2, 3, 7, slots / 2, slots - 1, -1, -5, slots}
	gks := kg.GenGaloisKeys(sk, rots)
	out := ctx.NewCiphertext(ct.Level)
	for _, r := range rots {
		if err := ev.RotateInto(ct, r, gks, out); err != nil {
			t.Fatalf("rot %d: %v", r, err)
		}
		if out.Level != ct.Level || out.Scale != ct.Scale {
			t.Fatalf("rot %d changed level/scale: %d/%g", r, out.Level, out.Scale)
		}
		got := enc.Decode(ev.Decrypt(sk, out))
		if e := maxSlotError(rotated(z, r), got); e > 2e-3 {
			t.Errorf("rot %d: slot error %v", r, e)
		}
	}
}

// TestRotateComposes checks the group law at the ciphertext level:
// rotating by a then b equals rotating by a+b.
func TestRotateComposes(t *testing.T) {
	ctx := testContext(t)
	kg := NewKeyGenerator(ctx, 31)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	ev := NewEvaluator(ctx, 32)
	enc := NewEncoder(ctx)
	rng := rand.New(rand.NewSource(33))

	z := randomSlots(rng, ctx.Params.Slots())
	pt, _ := enc.Encode(z, 0)
	ct := ev.Encrypt(pk, pt)
	gks := kg.GenGaloisKeys(sk, []int{3, 5, 8})

	a, err := ev.Rotate(ct, 3, gks)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := ev.Rotate(a, 5, gks)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ev.Rotate(ct, 8, gks)
	if err != nil {
		t.Fatal(err)
	}
	g1 := enc.Decode(ev.Decrypt(sk, ab))
	g2 := enc.Decode(ev.Decrypt(sk, direct))
	if e := maxSlotError(g1, g2); e > 4e-3 {
		t.Errorf("rotate(3)∘rotate(5) vs rotate(8): error %v", e)
	}
}

// TestRotateHoistedMatchesNaive pins the hoisted path against the naive
// one. The results are not bit-identical — the hoisted path key-switches a
// permuted signed-representative decomposition, shifting the low-order
// noise — so equality is asserted on the decoded slots.
func TestRotateHoistedMatchesNaive(t *testing.T) {
	ctx := testContext(t)
	kg := NewKeyGenerator(ctx, 41)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	ev := NewEvaluator(ctx, 42)
	enc := NewEncoder(ctx)
	rng := rand.New(rand.NewSource(43))

	z := randomSlots(rng, ctx.Params.Slots())
	pt, _ := enc.Encode(z, 0)
	ct := ev.Encrypt(pk, pt)
	rots := []int{0, 1, 2, 6, 11, -4}
	gks := kg.GenGaloisKeys(sk, rots)

	h := ev.NewHoisted()
	ev.HoistInto(h, ct)
	naive := ctx.NewCiphertext(ct.Level)
	hoisted := ctx.NewCiphertext(ct.Level)
	for _, r := range rots {
		if err := ev.RotateInto(ct, r, gks, naive); err != nil {
			t.Fatalf("naive rot %d: %v", r, err)
		}
		if err := ev.RotateHoistedInto(h, r, gks, hoisted); err != nil {
			t.Fatalf("hoisted rot %d: %v", r, err)
		}
		gn := enc.Decode(ev.Decrypt(sk, naive))
		gh := enc.Decode(ev.Decrypt(sk, hoisted))
		if e := maxSlotError(gn, gh); e > 1e-4 {
			t.Errorf("rot %d: hoisted vs naive error %v", r, e)
		}
		if e := maxSlotError(rotated(z, r), gh); e > 2e-3 {
			t.Errorf("rot %d: hoisted vs plaintext error %v", r, e)
		}
	}
}

// TestRotateMissingKey checks the typed rejection for an absent key.
func TestRotateMissingKey(t *testing.T) {
	ctx := testContext(t)
	kg := NewKeyGenerator(ctx, 51)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	ev := NewEvaluator(ctx, 52)
	enc := NewEncoder(ctx)
	pt, _ := enc.Encode([]complex128{1}, 0)
	ct := ev.Encrypt(pk, pt)
	gks := kg.GenGaloisKeys(sk, []int{1})

	out := ctx.NewCiphertext(ct.Level)
	if err := ev.RotateInto(ct, 2, gks, out); !errors.Is(err, ErrNoGaloisKey) {
		t.Fatalf("want ErrNoGaloisKey, got %v", err)
	}
	h := ev.NewHoisted()
	ev.HoistInto(h, ct)
	if err := ev.RotateHoistedInto(h, 2, gks, out); !errors.Is(err, ErrNoGaloisKey) {
		t.Fatalf("hoisted: want ErrNoGaloisKey, got %v", err)
	}
	// Rotation 0 needs no key at all.
	if err := ev.RotateInto(ct, 0, gks, out); err != nil {
		t.Fatalf("identity rotation: %v", err)
	}
}

// TestRotationKeysPow2 checks the power-of-two set covers ± every power
// below slots and that composed pow-2 steps realize an arbitrary rotation.
func TestRotationKeysPow2(t *testing.T) {
	ctx := testContext(t)
	kg := NewKeyGenerator(ctx, 61)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	ev := NewEvaluator(ctx, 62)
	enc := NewEncoder(ctx)
	rng := rand.New(rand.NewSource(63))

	slots := ctx.Params.Slots()
	// ± every power of two below slots; −slots/2 ≡ +slots/2 share one
	// element, so the set has 2·log₂(slots) − 1 distinct keys.
	var rots []int
	for r := 1; r < slots; r <<= 1 {
		rots = append(rots, r, -r)
	}
	gks := kg.GenGaloisKeys(sk, rots)
	want := len(rots) - 1
	if got := len(gks.Keys); got != want {
		t.Fatalf("pow2 set has %d keys, want %d", got, want)
	}

	z := randomSlots(rng, slots)
	pt, _ := enc.Encode(z, 0)
	ct := ev.Encrypt(pk, pt)
	// 11 = 8 + 2 + 1 through three pow-2 hops.
	cur := ct
	for _, r := range []int{8, 2, 1} {
		next, err := ev.Rotate(cur, r, gks)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	got := enc.Decode(ev.Decrypt(sk, cur))
	if e := maxSlotError(rotated(z, 11), got); e > 4e-3 {
		t.Errorf("composed rotation by 11: error %v", e)
	}
}
