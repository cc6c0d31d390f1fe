package edge

// Chaos suite: drives the client through the fault injector and
// asserts the failure contract: every injected transport fault surfaces
// as a typed error (serve.ErrConnClosed / serve.ErrDeadline), never a hang
// and never a wrong plaintext; and a killed connection resumes its session
// with zero new key generations and zero new QKD withdrawals.

import (
	"errors"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"quhe/internal/obs"
	"quhe/internal/qkd"
	"quhe/internal/serve"
)

const chaosIdle = 250 * time.Millisecond

// ClientStats counts the client's fault-tolerance events since the dial.
type ClientStats struct {
	// Reconnects and Resumes count successful transport re-establishments
	// and the session resumes that rode them (equal today; split so a
	// future non-resume reconnect path stays observable).
	Reconnects int64
	Resumes    int64
	// Retries counts transparent request retries under the unified retry
	// policy; Replays counts in-flight Computes re-sent after a resume.
	Retries int64
	Replays int64
	// Keygens counts HE key generations (1 at the dial; a resume performs
	// none — that is the point of the resume handshake).
	Keygens int64
}

// Stats snapshots the fault-tolerance counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Reconnects: c.reconnects.Load(),
		Resumes:    c.resumes.Load(),
		Retries:    c.retries.Load(),
		Replays:    c.replays.Load(),
		Keygens:    c.keygens.Load(),
	}
}

// armedConn delegates to the raw connection until armed, then routes every
// Read/Write through the fault-injected wrapper — the handshake and warmup
// traffic always succeed, and the injected fault lands deterministically on
// the request under test.
type armedConn struct {
	raw    net.Conn
	faulty net.Conn
	armed  *atomic.Bool
}

func (a *armedConn) Read(b []byte) (int, error) {
	if a.armed.Load() {
		return a.faulty.Read(b)
	}
	return a.raw.Read(b)
}

func (a *armedConn) Write(b []byte) (int, error) {
	if a.armed.Load() {
		return a.faulty.Write(b)
	}
	return a.raw.Write(b)
}

func (a *armedConn) Close() error                       { return a.faulty.Close() }
func (a *armedConn) LocalAddr() net.Addr                { return a.raw.LocalAddr() }
func (a *armedConn) RemoteAddr() net.Addr               { return a.raw.RemoteAddr() }
func (a *armedConn) SetDeadline(t time.Time) error      { return a.raw.SetDeadline(t) }
func (a *armedConn) SetReadDeadline(t time.Time) error  { return a.raw.SetReadDeadline(t) }
func (a *armedConn) SetWriteDeadline(t time.Time) error { return a.raw.SetWriteDeadline(t) }

// armedDialer dials plain TCP and wraps the result so the fault schedule
// can be switched on mid-session.
func armedDialer(inj *faultInjector, armed *atomic.Bool) func(network, addr string) (net.Conn, error) {
	return func(network, addr string) (net.Conn, error) {
		raw, err := net.DialTimeout(network, addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		return &armedConn{raw: raw, faulty: inj.Wrap(raw), armed: armed}, nil
	}
}

func chaosServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	if cfg.Model.Weights == nil {
		cfg.Model = Model{Weights: []float64{0.5}, Bias: []float64{0.1}}
	}
	srv, err := NewServer("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestChaosMatrix is the fault matrix: {mid-frame drop, stall past
// IdleTimeout, corrupt frame}, each landing on a request in flight (the
// subtests keep their "v3/" prefix from when the matrix had a generation
// axis). Every frame carries a CRC32C trailer, so a flipped bit is always
// detected. Reconnect is disabled: the matrix pins what the failure looks
// like when it is NOT papered over.
func TestChaosMatrix(t *testing.T) {
	faults := []struct {
		name string
		spec faultSpec
	}{
		{"drop", faultSpec{DropProb: 1}},
		{"stall", faultSpec{StallProb: 1, Stall: 3 * chaosIdle}},
		{"corrupt", faultSpec{CorruptProb: 1}},
	}
	for _, fault := range faults {
		t.Run("v3/"+fault.name, func(t *testing.T) {
			t.Parallel()
			srv := chaosServer(t, ServerConfig{IdleTimeout: chaosIdle})
			inj := newFaultInjector(faultConfig{Seed: 11, Write: fault.spec})
			var armed atomic.Bool
			client, err := DialWith(srv.Addr(), "chaos-"+fault.name, []byte("chaos-material"), 21,
				DialConfig{Dialer: armedDialer(inj, &armed), RequestTimeout: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			got, err := client.Compute(0, []float64{0.8})
			if err != nil {
				t.Fatalf("pre-fault compute: %v", err)
			}
			if math.Abs(got[0]-0.5) > 0.05 {
				t.Fatalf("pre-fault result %v, want ≈0.5", got[0])
			}

			armed.Store(true)
			done := make(chan error, 1)
			go func() {
				_, err := client.Compute(1, []float64{0.4})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("compute succeeded through the injected fault")
				}
				if !errors.Is(err, serve.ErrConnClosed) && !errors.Is(err, serve.ErrDeadline) {
					t.Errorf("chaos error not typed (want ErrConnClosed or ErrDeadline): %v", err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("compute hung under injected fault")
			}
		})
	}
}

// TestResumeRoundTrip kills a live connection and proves the resume
// handshake re-attaches the session without a new HE key generation and
// without a new QKD withdrawal — the whole point of resume: reconnect cost
// is one challenge-MAC round trip, not a key ceremony.
func TestResumeRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	srv := chaosServer(t, ServerConfig{
		IdleTimeout:  2 * time.Second,
		ResumeWindow: 10 * time.Second,
		Obs:          reg,
	})
	kc := qkd.NewKeyCenter()
	if err := kc.Provision("resume-rt", 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := kc.RunExchange("resume-rt", 0.97, 8192, 5); err != nil {
		t.Fatal(err)
	}
	inj := newFaultInjector(faultConfig{Seed: 3}) // no faults: pure kill switch
	client, err := DialQKDWith(srv.Addr(), "resume-rt", kc, 9, DialConfig{
		Dialer:         inj.Dialer(2 * time.Second),
		Reconnect:      true,
		RequestTimeout: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	check := func(block uint32) {
		t.Helper()
		got, err := client.Compute(block, []float64{0.8})
		if err != nil {
			t.Fatalf("block %d: %v", block, err)
		}
		if math.Abs(got[0]-0.5) > 0.05 {
			t.Fatalf("block %d = %v, want ≈0.5 (wrong plaintext after resume)", block, got[0])
		}
	}
	for b := uint32(0); b < 3; b++ {
		check(b)
	}

	withdrawals := kc.Counters().Withdrawals
	if n := inj.CloseAll(); n == 0 {
		t.Fatal("no live connection to kill")
	}
	for b := uint32(3); b < 6; b++ {
		check(b)
	}

	st := client.Stats()
	if st.Keygens != 1 {
		t.Errorf("keygens = %d after resume, want 1 (dial only)", st.Keygens)
	}
	if st.Reconnects < 1 || st.Resumes < 1 {
		t.Errorf("reconnects/resumes = %d/%d, want ≥1 each", st.Reconnects, st.Resumes)
	}
	// The server counts the grant too, on the series operators scrape.
	if got := reg.Counter("quhe_resumes_total", "").Value(); got < 1 {
		t.Errorf("quhe_resumes_total = %d, want ≥1", got)
	}
	if got := kc.Counters().Withdrawals; got != withdrawals {
		t.Errorf("resume withdrew QKD key: %d withdrawals before, %d after", withdrawals, got)
	}
}

// TestBatchReplaysAcrossDrop kills the connection under a batch in
// flight: its items are ordinary Computes, so the recovery pass replays
// them on the resumed transport and ComputeBatch completes as if nothing
// happened.
func TestBatchReplaysAcrossDrop(t *testing.T) {
	ctl := &fakeControl{}
	srv := startControlledServer(t, ctl, ServerConfig{
		Model: Model{Weights: []float64{0.5}, Bias: []float64{0.1}}, Workers: 1, QueueDepth: 16,
		ResumeWindow: 10 * time.Second,
	})
	inj := newFaultInjector(faultConfig{Seed: 5}) // no faults: pure kill switch
	client, err := DialWith(srv.Addr(), "batch-drop", []byte("material"), 33, DialConfig{
		Dialer:         inj.Dialer(2 * time.Second),
		Reconnect:      true,
		RequestTimeout: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	data := make([][]float64, 8)
	for i := range data {
		data[i] = []float64{0.8}
	}
	done := make(chan error, 1)
	var out [][]float64
	// With the first item parked on the one worker, no reply has been
	// written when the connection dies: all eight are replayed.
	release := parkFirstBlock(ctl, func() {
		go func() {
			var err error
			out, err = client.ComputeBatch(0, data)
			done <- err
		}()
	})
	if n := inj.CloseAll(); n == 0 {
		t.Fatal("no live connection to kill")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("batch across a dropped connection: %v", err)
	}
	for i := range data {
		if math.Abs(out[i][0]-0.5) > 0.05 {
			t.Errorf("item %d = %v, want ≈0.5", i, out[i][0])
		}
	}
	if st := client.Stats(); st.Resumes < 1 || st.Replays < int64(len(data)) || st.Keygens != 1 {
		t.Errorf("resumes/replays/keygens = %d/%d/%d, want ≥1, ≥%d, 1", st.Resumes, st.Replays, st.Keygens, len(data))
	}
}
