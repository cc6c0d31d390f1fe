package qkd

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"quhe/internal/qnet"
)

// ErrUnknownClient is returned for operations on unprovisioned clients.
var ErrUnknownClient = errors.New("qkd: unknown client")

// ErrInsufficientKey is returned when a pool cannot satisfy a withdrawal.
var ErrInsufficientKey = errors.New("qkd: insufficient key material")

// KeyCenter manages per-client symmetric key pools, standing in for the
// paper's central key centre (Hilversum in the SURFnet topology). QKD
// exchanges deposit key material; clients withdraw it for symmetric
// encryption. Safe for concurrent use.
type KeyCenter struct {
	mu    sync.Mutex
	pools map[string]*keyPool

	// Flow counters, atomically maintained outside the pool mutex's
	// critical paths so observability scrapes never contend with
	// withdrawals. Exposed through Counters.
	deposits          atomic.Int64
	depositedBytes    atomic.Int64
	withdrawals       atomic.Int64
	withdrawnBytes    atomic.Int64
	failedWithdrawals atomic.Int64

	// ledger, when attached, receives every successful withdrawal with
	// its attribution (CauseUnattributed for plain Withdraw), so ledger
	// totals reconcile with the flow counters exactly.
	ledger atomic.Pointer[Ledger]
}

type keyPool struct {
	buf []byte
	// ratePerSec is the provisioned secret-key rate in bits/s
	// (informational; deposits are driven by the simulation).
	ratePerSec float64
}

// NewKeyCenter creates an empty key centre.
func NewKeyCenter() *KeyCenter {
	return &KeyCenter{pools: make(map[string]*keyPool)}
}

// Provision registers a client with a secret-key rate in bits/second.
// Re-provisioning updates the rate and keeps buffered material.
func (kc *KeyCenter) Provision(clientID string, ratePerSec float64) error {
	if clientID == "" {
		return errors.New("qkd: empty client id")
	}
	if ratePerSec < 0 {
		return fmt.Errorf("qkd: negative rate %g", ratePerSec)
	}
	kc.mu.Lock()
	defer kc.mu.Unlock()
	if p, ok := kc.pools[clientID]; ok {
		p.ratePerSec = ratePerSec
		return nil
	}
	kc.pools[clientID] = &keyPool{ratePerSec: ratePerSec}
	return nil
}

// RefillWait estimates how long the client's pool needs to grow to
// needBytes at its provisioned secret-key rate (bits/s): the time the QKD
// plane takes to manufacture the shortfall. 0 when the pool already holds
// needBytes, and when the wait cannot be estimated (unknown client, no
// positive rate) — retry at the caller's discretion.
func (kc *KeyCenter) RefillWait(clientID string, needBytes int) time.Duration {
	kc.mu.Lock()
	defer kc.mu.Unlock()
	p, ok := kc.pools[clientID]
	if !ok || p.ratePerSec <= 0 {
		return 0
	}
	deficit := needBytes - len(p.buf)
	if deficit <= 0 {
		return 0
	}
	return time.Duration(float64(deficit*8) / p.ratePerSec * float64(time.Second))
}

// Deposit adds key material to a client's pool (called after a successful
// Exchange).
func (kc *KeyCenter) Deposit(clientID string, key []byte) error {
	kc.mu.Lock()
	defer kc.mu.Unlock()
	p, ok := kc.pools[clientID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownClient, clientID)
	}
	p.buf = append(p.buf, key...)
	kc.deposits.Add(1)
	kc.depositedBytes.Add(int64(len(key)))
	return nil
}

// Available returns the buffered key bytes for a client.
func (kc *KeyCenter) Available(clientID string) (int, error) {
	kc.mu.Lock()
	defer kc.mu.Unlock()
	p, ok := kc.pools[clientID]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownClient, clientID)
	}
	return len(p.buf), nil
}

// Withdraw removes and returns n key bytes for a client, failing without
// side effects when the pool is short (keys are never reused). With a
// ledger attached the spend is recorded as CauseUnattributed; callers
// that know why they are spending should use WithdrawAttributed.
func (kc *KeyCenter) Withdraw(clientID string, n int) ([]byte, error) {
	return kc.WithdrawAttributed(clientID, n, Attribution{})
}

// WithdrawAttributed is Withdraw plus attribution: the spend lands in
// the attached ledger under the given session/route/profile/cause.
// Failed withdrawals are never ledgered (no key material moved).
func (kc *KeyCenter) WithdrawAttributed(clientID string, n int, attr Attribution) ([]byte, error) {
	if n <= 0 {
		return nil, fmt.Errorf("qkd: withdrawal of %d bytes", n)
	}
	kc.mu.Lock()
	p, ok := kc.pools[clientID]
	if !ok {
		kc.mu.Unlock()
		kc.failedWithdrawals.Add(1)
		return nil, fmt.Errorf("%w: %q", ErrUnknownClient, clientID)
	}
	if len(p.buf) < n {
		have := len(p.buf)
		kc.mu.Unlock()
		kc.failedWithdrawals.Add(1)
		return nil, fmt.Errorf("%w: want %d bytes, have %d", ErrInsufficientKey, n, have)
	}
	out := make([]byte, n)
	copy(out, p.buf[:n])
	p.buf = p.buf[n:]
	kc.mu.Unlock()
	kc.withdrawals.Add(1)
	kc.withdrawnBytes.Add(int64(n))
	if l := kc.ledger.Load(); l != nil {
		l.Record(clientID, n, attr)
	}
	return out, nil
}

// AttachLedger points the key centre's withdrawal flow at a key-flow
// ledger; every subsequent successful withdrawal is recorded there. A
// nil ledger detaches.
func (kc *KeyCenter) AttachLedger(l *Ledger) { kc.ledger.Store(l) }

// KeyLedger returns the attached ledger, or nil.
func (kc *KeyCenter) KeyLedger() *Ledger { return kc.ledger.Load() }

// FlowCounters is the key centre's cumulative deposit/withdrawal flow —
// the counter-shaped complement to PoolStats' point-in-time stock.
type FlowCounters struct {
	Deposits          int64
	DepositedBytes    int64
	Withdrawals       int64
	WithdrawnBytes    int64
	FailedWithdrawals int64
}

// Counters snapshots the cumulative flow counters.
func (kc *KeyCenter) Counters() FlowCounters {
	return FlowCounters{
		Deposits:          kc.deposits.Load(),
		DepositedBytes:    kc.depositedBytes.Load(),
		Withdrawals:       kc.withdrawals.Load(),
		WithdrawnBytes:    kc.withdrawnBytes.Load(),
		FailedWithdrawals: kc.failedWithdrawals.Load(),
	}
}

// PoolStat is a point-in-time snapshot of one client's key pool.
type PoolStat struct {
	// ClientID names the pool.
	ClientID string
	// AvailableBytes is the buffered key material.
	AvailableBytes int
	// RatePerSec is the provisioned secret-key rate in bits/s.
	RatePerSec float64
}

// PoolStats snapshots every client pool's stock and provisioned rate — the
// key-plane telemetry the control plane folds into its resource plans.
func (kc *KeyCenter) PoolStats() []PoolStat {
	kc.mu.Lock()
	defer kc.mu.Unlock()
	out := make([]PoolStat, 0, len(kc.pools))
	for id, p := range kc.pools {
		out = append(out, PoolStat{ClientID: id, AvailableBytes: len(p.buf), RatePerSec: p.ratePerSec})
	}
	return out
}

// ProvisionFromAllocation registers every route's client with the
// secret-key rate its Stage-1 allocation sustains:
//
//	rate_n = φ_n · F_skf(̟_n)   [secret pairs ≈ bits per second],
//
// tying the key centre directly to the QuHE optimizer's output. Route r's
// client is "client-<r+1>".
func (kc *KeyCenter) ProvisionFromAllocation(net *qnet.Network, phi, w []float64) error {
	if len(phi) != net.NumRoutes() {
		return fmt.Errorf("qkd: %d rates for %d routes", len(phi), net.NumRoutes())
	}
	for r := 0; r < net.NumRoutes(); r++ {
		ew, err := net.EndToEndWerner(r, w)
		if err != nil {
			return err
		}
		rate := phi[r] * qnet.SecretKeyFraction(ew)
		if err := kc.Provision("client-"+strconv.Itoa(r+1), rate); err != nil {
			return err
		}
	}
	return nil
}

// RunExchange performs a simulated BBM92 exchange for a client over a
// route with the given end-to-end Werner parameter and deposits the result.
func (kc *KeyCenter) RunExchange(clientID string, werner float64, rawBits int, seed int64) (ExchangeResult, error) {
	res, err := Exchange(ExchangeConfig{
		Protocol: BBM92,
		Werner:   werner,
		RawBits:  rawBits,
		Seed:     seed,
	})
	if err != nil {
		return res, err
	}
	if err := kc.Deposit(clientID, res.Key); err != nil {
		return res, err
	}
	return res, nil
}
