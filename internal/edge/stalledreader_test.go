package edge

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"quhe/internal/he/profile"
)

// stalledConn is a client-side connection whose reads block from the
// moment stall is set until Close: a peer that keeps its socket open and
// never drains it.
type stalledConn struct {
	net.Conn
	stall  atomic.Bool
	closed chan struct{}
}

func (c *stalledConn) Read(b []byte) (int, error) {
	if c.stall.Load() {
		<-c.closed
		return 0, net.ErrClosed
	}
	return c.Conn.Read(b)
}

func (c *stalledConn) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return c.Conn.Close()
}

// shrinkReadBuffer keeps the advertised TCP window small, so the server's
// reply writes hit backpressure after a few frames instead of
// disappearing into autotuned kernel buffers.
func shrinkReadBuffer(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4 << 10)
	}
}

// TestStalledReaderDoesNotPinWorkers pins the property the reply path
// owns for every op: a peer that sends far more work than its window
// holds and then stops reading must not pin eval-pool workers on its
// socket. With one worker and a stalled peer's blocks in flight, an
// unrelated client's compute must still complete while the staller's
// connection is open — when workers flushed replies themselves, the
// worker blocked inside the socket write and the bystander hung forever.
// The staller is (a) a raw peer pipelining ordinary compute frames and
// (b) a real Client in ComputeBatch whose transport stops reading.
func TestStalledReaderDoesNotPinWorkers(t *testing.T) {
	const n = 256
	def, _ := profile.Default().Get(profile.IDDefault)
	data := make([]float64, def.Params.Slots())
	for i := range data {
		data[i] = 0.25
	}
	// Each staller starts its traffic and returns its local address.
	stallers := []struct {
		name  string
		start func(t *testing.T, srv *Server) string
	}{
		{"pipelined frames", func(t *testing.T, srv *Server) string {
			p := newRawPeer(t, 201)
			p.dial(t, srv.Addr())
			shrinkReadBuffer(p.conn)
			p.register(t, "staller")
			frames := make([][]byte, n)
			for i := range frames {
				req := &ComputeRequest{Block: uint32(i), Epoch: 1, Masked: p.mask(t, uint32(i), data)}
				frames[i] = buildFrame(t, frameCompute, uint64(10+i), func(b []byte) []byte { return appendComputeRequest(b, req) })
			}
			// Never read a byte again. Each write waits until the server
			// has taken the frame before it and the queue has room (and one
			// slot to spare, the bystander's), so no frame is shed for
			// arriving early: every block is evaluated and its reply —
			// 12 MB in all — is owed to a 4 KiB receive buffer. The writes
			// back up too once the server stops admitting, so they run
			// beside the test.
			stop := make(chan struct{})
			t.Cleanup(func() { close(stop) })
			taken := srv.met.framesIn.Value()
			go func() {
				for i, f := range frames {
					for srv.met.framesIn.Value() < taken+int64(i) || srv.sched.QueueDepth() >= srv.sched.Capacity()-1 {
						select {
						case <-stop:
							return
						case <-time.After(time.Millisecond):
						}
					}
					if _, err := p.conn.Write(f); err != nil {
						return
					}
				}
			}()
			return p.conn.LocalAddr().String()
		}},
		{"ComputeBatch", func(t *testing.T, srv *Server) string {
			var sc *stalledConn
			client, err := DialWith(srv.Addr(), "staller", []byte("staller-key"), 203, DialConfig{
				dialer: func(network, addr string) (net.Conn, error) {
					raw, err := net.Dial(network, addr)
					if err != nil {
						return nil, err
					}
					shrinkReadBuffer(raw)
					sc = &stalledConn{Conn: raw, closed: make(chan struct{})}
					return sc, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			sc.stall.Store(true)
			batch := make([][]float64, n)
			for i := range batch {
				batch[i] = data
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				client.ComputeBatch(0, batch)
			}()
			t.Cleanup(func() {
				client.Close()
				<-done
			})
			return sc.LocalAddr().String()
		}},
	}
	for _, st := range stallers {
		t.Run(st.name, func(t *testing.T) {
			srv, err := NewServer("127.0.0.1:0", ServerConfig{
				Model: Model{Weights: []float64{1}}, Workers: 1, QueueDepth: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			local := st.start(t, srv)

			// Wait for the stalled state: the staller's served-block count
			// has stopped moving, because its replies no longer fit the
			// socket.
			deadline := time.Now().Add(20 * time.Second)
			last, since := 0, time.Now()
			for last == 0 || time.Since(since) < 300*time.Millisecond {
				if time.Now().After(deadline) {
					t.Fatalf("staller still making progress after 20s (%d blocks)", last)
				}
				time.Sleep(10 * time.Millisecond)
				if got := blocks(srv, "staller"); got != last {
					last, since = got, time.Now()
				}
			}
			if got := blocks(srv, "staller"); got >= n {
				t.Fatalf("all %d blocks were answered: the peer never stalled", got)
			}

			// The single worker must be free to serve an unrelated client.
			done := make(chan error, 1)
			go func() {
				client, err := DialWith(srv.Addr(), "bystander", []byte("bystander-key"), 17, DialConfig{})
				if err != nil {
					done <- err
					return
				}
				defer client.Close()
				_, err = client.Compute(0, []float64{0.5})
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("bystander compute failed: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("bystander compute hung: the stalled reader is pinning the eval worker")
			}
			open := false
			srv.mu.Lock()
			for c := range srv.conns {
				open = open || c.RemoteAddr().String() == local
			}
			srv.mu.Unlock()
			if !open {
				t.Error("the staller's connection was closed: the bystander was not served beside it")
			}

			// Shutdown must not be pinned either: Close tears live
			// connections down, so it returns even though the peer is
			// still stalled.
			closed := make(chan error, 1)
			go func() { closed <- srv.Close() }()
			select {
			case <-closed:
			case <-time.After(30 * time.Second):
				t.Fatal("Server.Close hung on the stalled connection")
			}
		})
	}
}
