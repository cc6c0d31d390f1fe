package qkd

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"quhe/internal/qnet"
)

func TestExchangeNoiselessBB84(t *testing.T) {
	res, err := Exchange(ExchangeConfig{RawBits: 8192, QBER: 0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Key == nil {
		t.Fatal("no key produced")
	}
	// About half the raw bits survive sifting.
	if res.SiftedBits < 3500 || res.SiftedBits > 4700 {
		t.Errorf("sifted %d of 8192, want ≈ half", res.SiftedBits)
	}
	if res.EstimatedQBER != 0 || res.TrueQBER != 0 {
		t.Errorf("noiseless QBER: est %v true %v", res.EstimatedQBER, res.TrueQBER)
	}
	if res.SecretFraction < 0.99 {
		t.Errorf("secret fraction %v, want ≈ 1", res.SecretFraction)
	}
}

func TestExchangeNoisyReconciles(t *testing.T) {
	for _, qber := range []float64{0.02, 0.05, 0.08} {
		res, err := Exchange(ExchangeConfig{RawBits: 16384, QBER: qber, Seed: 3})
		if err != nil {
			t.Fatalf("qber %v: %v", qber, err)
		}
		// Estimated QBER tracks the channel error rate.
		if math.Abs(res.EstimatedQBER-qber) > 0.03 {
			t.Errorf("qber %v: estimate %v", qber, res.EstimatedQBER)
		}
		if res.LeakedBits == 0 {
			t.Errorf("qber %v: reconciliation leaked nothing yet errors existed", qber)
		}
		if len(res.Key) == 0 {
			t.Errorf("qber %v: empty key", qber)
		}
	}
}

func TestExchangeKeysAreDifferentAcrossSeeds(t *testing.T) {
	a, err := Exchange(ExchangeConfig{RawBits: 4096, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Exchange(ExchangeConfig{RawBits: 4096, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Key, b.Key) {
		t.Error("different seeds produced identical keys")
	}
	// Same seed reproduces exactly.
	a2, err := Exchange(ExchangeConfig{RawBits: 4096, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Key, a2.Key) {
		t.Error("same seed produced different keys")
	}
}

func TestEavesdropperDetected(t *testing.T) {
	// Intercept-resend induces ~25% QBER — the exchange must abort.
	_, err := Exchange(ExchangeConfig{RawBits: 8192, QBER: 0, Eavesdrop: true, Seed: 4})
	if !errors.Is(err, ErrAborted) {
		t.Errorf("err = %v, want ErrAborted", err)
	}
}

func TestHighNoiseAborts(t *testing.T) {
	_, err := Exchange(ExchangeConfig{RawBits: 8192, QBER: 0.2, Seed: 5})
	if !errors.Is(err, ErrAborted) {
		t.Errorf("err = %v, want ErrAborted", err)
	}
}

func TestBBM92FromWerner(t *testing.T) {
	// w = 0.95 → QBER 2.5%: exchange succeeds with matching estimate.
	res, err := Exchange(ExchangeConfig{Protocol: BBM92, Werner: 0.95, RawBits: 16384, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.EstimatedQBER-0.025) > 0.02 {
		t.Errorf("BBM92 QBER estimate %v, want ≈ 0.025", res.EstimatedQBER)
	}
	// w below the SKF threshold must abort.
	if _, err := Exchange(ExchangeConfig{Protocol: BBM92, Werner: 0.7, RawBits: 8192, Seed: 6}); !errors.Is(err, ErrAborted) {
		t.Errorf("low-werner err = %v, want ErrAborted", err)
	}
	if _, err := Exchange(ExchangeConfig{Protocol: BBM92, Werner: 0, Seed: 6}); err == nil {
		t.Error("Werner 0 accepted")
	}
}

func TestExchangeConfigValidation(t *testing.T) {
	if _, err := Exchange(ExchangeConfig{QBER: 0.7, Seed: 1}); err == nil {
		t.Error("QBER > 0.5 accepted")
	}
	if _, err := Exchange(ExchangeConfig{RawBits: 50, Seed: 1}); err == nil {
		t.Error("tiny exchange accepted")
	}
}

func TestKeyFractionMatchesTheory(t *testing.T) {
	// Final key length ≈ (1−2h2(e))·kept − leaked.
	res, err := Exchange(ExchangeConfig{RawBits: 32768, QBER: 0.03, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	kept := float64(res.SiftedBits) * 0.75 // quarter sampled away
	wantBits := res.SecretFraction*kept - float64(res.LeakedBits)
	gotBits := float64(len(res.Key) * 8)
	if math.Abs(gotBits-wantBits) > 16 {
		t.Errorf("final key %v bits, want ≈ %v", gotBits, wantBits)
	}
}

// Rate returns the provisioned secret-key rate for a client.
func (kc *KeyCenter) Rate(clientID string) (float64, error) {
	kc.mu.Lock()
	defer kc.mu.Unlock()
	p, ok := kc.pools[clientID]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownClient, clientID)
	}
	return p.ratePerSec, nil
}

func TestKeyCenterLifecycle(t *testing.T) {
	kc := NewKeyCenter()
	if err := kc.Provision("c1", 1000); err != nil {
		t.Fatal(err)
	}
	if err := kc.Provision("", 1); err == nil {
		t.Error("empty client id accepted")
	}
	if err := kc.Provision("c2", -1); err == nil {
		t.Error("negative rate accepted")
	}
	if r, err := kc.Rate("c1"); err != nil || r != 1000 {
		t.Errorf("Rate = %v, %v", r, err)
	}
	if _, err := kc.Rate("ghost"); !errors.Is(err, ErrUnknownClient) {
		t.Errorf("Rate(ghost) err = %v", err)
	}

	if err := kc.Deposit("c1", []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := kc.Deposit("ghost", []byte{1}); !errors.Is(err, ErrUnknownClient) {
		t.Errorf("Deposit(ghost) err = %v", err)
	}
	if n, err := kc.Available("c1"); err != nil || n != 4 {
		t.Errorf("Available = %d, %v", n, err)
	}
	got, err := kc.Withdraw("c1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Withdraw = %v", got)
	}
	if _, err := kc.Withdraw("c1", 5); !errors.Is(err, ErrInsufficientKey) {
		t.Errorf("over-withdraw err = %v", err)
	}
	if _, err := kc.Withdraw("c1", 0); err == nil {
		t.Error("zero withdraw accepted")
	}
	// Keys are consumed exactly once.
	if n, _ := kc.Available("c1"); n != 1 {
		t.Errorf("Available after withdraw = %d, want 1", n)
	}
}

func TestKeyCenterConcurrent(t *testing.T) {
	kc := NewKeyCenter()
	if err := kc.Provision("c", 1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = kc.Deposit("c", []byte{0xAA})
				_, _ = kc.Withdraw("c", 1)
			}
		}()
	}
	wg.Wait()
	n, err := kc.Available("c")
	if err != nil {
		t.Fatal(err)
	}
	if n < 0 || n > 1600 {
		t.Errorf("pool size %d out of range after churn", n)
	}
}

func TestProvisionFromAllocation(t *testing.T) {
	net := qnet.SURFnet()
	phi := []float64{2, 1.1, 1.1, 1.9, 0.7, 0.6}
	w, err := net.WernerFromRates(phi)
	if err != nil {
		t.Fatal(err)
	}
	kc := NewKeyCenter()
	if err := kc.ProvisionFromAllocation(net, phi, w); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < net.NumRoutes(); r++ {
		ew, err := net.EndToEndWerner(r, w)
		if err != nil {
			t.Fatal(err)
		}
		want := phi[r] * qnet.SecretKeyFraction(ew)
		got, err := kc.Rate((func(i int) string { return "client-" + string(rune('1'+i)) })(r))
		if err != nil {
			t.Fatalf("route %d: %v", r, err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("route %d rate = %v, want %v", r+1, got, want)
		}
	}
	if err := kc.ProvisionFromAllocation(net, phi[:2], w); err == nil {
		t.Error("short phi accepted")
	}
}

func TestRunExchangeDeposits(t *testing.T) {
	kc := NewKeyCenter()
	if err := kc.Provision("client-1", 10); err != nil {
		t.Fatal(err)
	}
	res, err := kc.RunExchange("client-1", 0.97, 8192, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Key) == 0 {
		t.Fatal("no key")
	}
	n, err := kc.Available("client-1")
	if err != nil {
		t.Fatal(err)
	}
	if n != len(res.Key) {
		t.Errorf("pool holds %d bytes, exchange produced %d", n, len(res.Key))
	}
}

// TestRefillWait: the one key-refill estimate — shortfall bits over the
// provisioned rate — and its three "no estimate" cases.
func TestRefillWait(t *testing.T) {
	kc := NewKeyCenter()
	if err := kc.Provision("c", 800); err != nil { // 100 bytes/s
		t.Fatal(err)
	}
	if err := kc.Deposit("c", make([]byte, 12)); err != nil {
		t.Fatal(err)
	}
	if got := kc.RefillWait("c", 32); got != 200*time.Millisecond {
		t.Errorf("20-byte shortfall at 100 B/s: wait %v, want 200ms", got)
	}
	if got := kc.RefillWait("c", 12); got != 0 {
		t.Errorf("funded pool: wait %v, want 0", got)
	}
	if got := kc.RefillWait("ghost", 32); got != 0 {
		t.Errorf("unknown client: wait %v, want 0", got)
	}
	if err := kc.Provision("c", 0); err != nil {
		t.Fatal(err)
	}
	if got := kc.RefillWait("c", 32); got != 0 {
		t.Errorf("unprovisioned rate: wait %v, want 0", got)
	}
}
