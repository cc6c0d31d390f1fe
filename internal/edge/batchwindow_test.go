package edge

import (
	"net"
	"testing"
	"time"
)

// TestStalledBatchReaderDoesNotPinWorkers is the windowing regression
// test: a client that submits a large streaming batch and then stops
// reading must not pin eval-pool workers on its socket. With one worker
// and a stalled batch in flight, an unrelated client's compute must still
// complete — pre-windowing, the worker blocked inside sendFrame on the
// stalled connection and the second client hung forever.
func TestStalledBatchReaderDoesNotPinWorkers(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Model: Model{Weights: []float64{1}}, Workers: 1, QueueDepth: 4, BatchWindow: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Raw client so the read side can be deliberately stalled. Its
	// connection closes before srv.Close (LIFO cleanup), unblocking the
	// server's stalled batch writer so shutdown can drain.
	p := newRawPeer(t, 201)
	p.dial(t, srv.Addr())
	// A tiny receive buffer keeps the advertised TCP window small, so the
	// server's item-frame writes hit backpressure after a few frames
	// instead of disappearing into autotuned kernel buffers.
	if tc, ok := p.conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4 << 10)
	}
	p.register(t, "staller")

	// A batch large enough that its item frames overflow both the window
	// and the kernel socket buffers, then never read a byte again.
	const n = MaxBatch
	blocks := make([]uint32, n)
	masked := make([][]float64, n)
	data := make([]float64, p.cipher.Slots())
	for i := range data {
		data[i] = 0.25
	}
	for i := range blocks {
		blocks[i] = uint32(i)
		masked[i] = p.mask(t, uint32(i), data)
	}
	p.send(t, frameBatch, 2, func(b []byte) []byte {
		return appendBatchRequest(b, &BatchRequest{SessionID: "staller", Blocks: blocks, Masked: masked})
	})

	// Give the batch time to reach the stalled state: items computed,
	// writer blocked, window full.
	time.Sleep(300 * time.Millisecond)

	// The single worker must be free to serve an unrelated client.
	type result struct {
		out []float64
		err error
	}
	done := make(chan result, 1)
	go func() {
		client, err := Dial(srv.Addr(), "bystander", []byte("bystander-key"), 17)
		if err != nil {
			done <- result{nil, err}
			return
		}
		defer client.Close()
		out, err := client.Compute(0, []float64{0.5})
		done <- result{out, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("bystander compute failed: %v", r.err)
		}
		if len(r.out) != 1 {
			t.Fatalf("bystander got %d values", len(r.out))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("bystander compute hung: stalled batch reader is pinning the eval worker")
	}

	// Shutdown must not be pinned either: Close tears live connections
	// down, so it returns even though the batch peer is still stalled.
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Server.Close hung on the stalled batch connection")
	}
}
