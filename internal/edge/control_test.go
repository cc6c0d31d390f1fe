package edge

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quhe/internal/he/profile"
	"quhe/internal/obs"
	"quhe/internal/serve"
)

// fakeControl is a scriptable control plane for wiring tests.
type fakeControl struct {
	denySetup   atomic.Bool
	denyCompute atomic.Bool
	// keyDry refuses computes as a drained QKD pool does: typed key
	// exhaustion carrying a retry-after hint.
	keyDry atomic.Bool
	budget atomic.Int64
	// steer, when non-empty, is the profile granted to every empty
	// negotiation (a scripted per-route plan).
	steer atomic.Value
	// lowerTo, when set, replaces steer once the first negotiation has
	// been answered: a replan landing between a grant and its Setup.
	lowerTo atomic.Value

	// admitHook, when set, runs inside AdmitCompute — on the eval worker —
	// so a test can park a worker mid-block.
	admitHook atomic.Pointer[func()]

	bound    atomic.Bool
	admits   atomic.Int64
	observed atomic.Int64
	// lastBytes and lastCode are the most recent ObserveCompute's.
	lastBytes  atomic.Int64
	lastCode   atomic.Int64
	negotiated atomic.Int64
	sessions   sync.Map // sessionID -> profileID from ObserveSession
}

func (f *fakeControl) BindServe(sched *serve.Scheduler, store *serve.Store, reg *obs.Registry) {
	if sched != nil && store != nil && reg != nil {
		f.bound.Store(true)
	}
}

func (f *fakeControl) NegotiateProfile(sessionID, requested string) (string, error) {
	if f.negotiated.Add(1) == 1 {
		if lower, _ := f.lowerTo.Load().(string); lower != "" {
			defer f.steer.Store(lower)
		}
	}
	reg := profile.Default()
	planned, _ := f.steer.Load().(string)
	if planned == "" {
		planned = reg.DefaultID()
	}
	if requested == "" {
		return planned, nil
	}
	req, ok := reg.Get(requested)
	if !ok {
		return "", serve.ErrProfileDenied
	}
	if plannedProf, ok := reg.Get(planned); ok && req.Lambda > plannedProf.Lambda {
		return planned, nil // downgrade, like the real controller
	}
	return requested, nil
}

func (f *fakeControl) ObserveSession(sessionID, profileID string) {
	f.sessions.Store(sessionID, profileID)
}

func (f *fakeControl) AdmitSession(sessionID string, resident int) error {
	if f.denySetup.Load() {
		return serve.ErrAdmissionDenied
	}
	f.admits.Add(1)
	return nil
}

func (f *fakeControl) AdmitCompute(sessionID string, usedBytes, pendingBytes int64) error {
	if hook := f.admitHook.Load(); hook != nil {
		(*hook)()
	}
	if f.denyCompute.Load() {
		return serve.ErrAdmissionDenied
	}
	if f.keyDry.Load() {
		return serve.NewKeyExhausted(1500*time.Millisecond, "pool dry")
	}
	return nil
}

func (f *fakeControl) RekeyBudget(sessionID string) int64 { return f.budget.Load() }

func (f *fakeControl) ObserveCompute(sessionID string, bytes int64, latency time.Duration, code serve.Code) {
	f.observed.Add(1)
	f.lastBytes.Store(bytes)
	f.lastCode.Store(int64(code))
}

func (f *fakeControl) ObserveRotations(sessionID string, n int) {}

func (f *fakeControl) PlanJSON() any { return nil }

func (f *fakeControl) LedgerJSON() any { return nil }

func startControlledServer(t *testing.T, ctl Controller, cfg ServerConfig) *Server {
	t.Helper()
	cfg.Control = ctl
	if cfg.Model.Weights == nil {
		cfg.Model = Model{Weights: []float64{1}}
	}
	srv, err := NewServer("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return srv
}

func TestControlSetupAdmission(t *testing.T) {
	ctl := &fakeControl{}
	srv := startControlledServer(t, ctl, ServerConfig{})
	if !ctl.bound.Load() {
		t.Fatal("controller not bound to the serving plane at construction")
	}

	ctl.denySetup.Store(true)
	if _, err := DialWith(srv.Addr(), "shed-me", []byte("k"), 3, DialConfig{}); !errors.Is(err, serve.ErrAdmissionDenied) {
		t.Fatalf("denied setup err = %v, want serve.ErrAdmissionDenied", err)
	}
	if srv.store.Len() != 0 {
		t.Fatalf("%d sessions resident after denied setup", srv.store.Len())
	}

	ctl.denySetup.Store(false)
	c, err := DialWith(srv.Addr(), "admit-me", []byte("k"), 4, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if ctl.admits.Load() == 0 {
		t.Error("admission hook never consulted")
	}
}

func TestControlComputeAdmission(t *testing.T) {
	ctl := &fakeControl{}
	srv := startControlledServer(t, ctl, ServerConfig{})
	c, err := DialWith(srv.Addr(), "compute-admit", []byte("k"), 5, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Compute(0, []float64{0.5}); err != nil {
		t.Fatalf("admitted compute failed: %v", err)
	}
	if ctl.observed.Load() == 0 {
		t.Error("telemetry hook never observed the served block")
	}

	ctl.denyCompute.Store(true)
	if _, err := c.Compute(1, []float64{0.5}); !errors.Is(err, serve.ErrAdmissionDenied) {
		t.Errorf("denied compute err = %v, want serve.ErrAdmissionDenied", err)
	}
	// A batch is admitted item by item, like any block.
	if _, err := c.ComputeBatch(2, [][]float64{{0.1}, {0.2}}); !errors.Is(err, serve.ErrAdmissionDenied) {
		t.Errorf("denied batch err = %v, want serve.ErrAdmissionDenied", err)
	}

	// A key-exhaustion refusal is a typed shed the client can schedule,
	// not an error: its retry hint survives the wire.
	ctl.denyCompute.Store(false)
	ctl.keyDry.Store(true)
	_, err = c.Compute(4, []float64{0.5})
	var ke *serve.KeyExhaustedError
	if !errors.Is(err, serve.ErrKeyExhausted) || !errors.As(err, &ke) || ke.RetryAfter <= 0 {
		t.Errorf("key-exhausted compute err = %v, want serve.ErrKeyExhausted with a positive retry hint", err)
	}
}

// TestControlDynamicBudgetOverridesStatic pins the tentpole's budget
// plumbing: the plan's per-session budget governs the rekey demand, not
// the static RekeyBytes constant.
func TestControlDynamicBudgetOverridesStatic(t *testing.T) {
	ctl := &fakeControl{}
	// Static budget generous, dynamic budget smaller than one padded
	// block: the first compute is served, the second must demand a rekey.
	ctl.budget.Store(1000)
	srv := startControlledServer(t, ctl, ServerConfig{RekeyBytes: 1 << 30})
	c, err := DialWith(srv.Addr(), "dyn-budget", []byte("k"), 6, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Compute(0, []float64{0.5}); err != nil {
		t.Fatalf("first compute: %v", err)
	}
	if _, err := c.Compute(1, []float64{0.5}); !errors.Is(err, serve.ErrRekeyRequired) {
		t.Fatalf("second compute err = %v, want serve.ErrRekeyRequired under dynamic budget", err)
	}
	// Raising the plan budget re-admits the session without a rekey.
	ctl.budget.Store(1 << 30)
	if _, err := c.Compute(2, []float64{0.5}); err != nil {
		t.Errorf("compute after budget raise: %v", err)
	}
}

// TestNilControlStaticCompat pins the compat requirement: with no
// controller the serving path behaves exactly as before the control
// plane existed — static budget enforcement, admit-until-evicted.
func TestNilControlStaticCompat(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Model: Model{Weights: []float64{1}}, RekeyBytes: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Static budget still enforced the old way.
	c, err := DialWith(srv.Addr(), "static", []byte("k"), 7, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Compute(0, []float64{0.5}); err != nil {
		t.Fatalf("first compute: %v", err)
	}
	if _, err := c.Compute(1, []float64{0.5}); !errors.Is(err, serve.ErrRekeyRequired) {
		t.Errorf("static budget err = %v, want serve.ErrRekeyRequired", err)
	}
}
