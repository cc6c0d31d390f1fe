package edge

// Chaos suite: drives the client through the fault injector and
// asserts the failure contract: every injected transport fault surfaces
// as a typed error (serve.ErrConnClosed / serve.ErrDeadline), never a hang
// and never a wrong plaintext.

import (
	"errors"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"quhe/internal/serve"
)

const chaosIdle = 250 * time.Millisecond

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
// detected. A lost connection ends its session, so nothing papers over
// the failure: the matrix pins what it looks like.
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
				DialConfig{dialer: armedDialer(inj, &armed), RequestTimeout: 10 * time.Second})
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
