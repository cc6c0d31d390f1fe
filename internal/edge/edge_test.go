package edge

import (
	"math"
	"strings"
	"sync"
	"testing"

	"quhe/internal/qkd"
)

// blocks returns how many blocks the server has processed for a session.
func blocks(srv *Server, sessionID string) int {
	st, _ := srv.SessionStats(sessionID)
	return int(st.Blocks)
}

func startServer(t *testing.T, model Model) *Server {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Model: model})
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

// TestPipelineEndToEnd runs the complete QuHE data path over real TCP:
// QKD key exchange → symmetric masking → upload → server transciphering →
// encrypted inference → client-side decryption.
func TestPipelineEndToEnd(t *testing.T) {
	model := Model{
		Weights: []float64{0.5, 0.25, -0.5, 1},
		Bias:    []float64{0.1, 0, -0.1, 0.2},
	}
	srv := startServer(t, model)

	// QKD phase: BBM92 over a w=0.97 route feeds the key centre.
	kc := qkd.NewKeyCenter()
	if err := kc.Provision("client-1", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := kc.RunExchange("client-1", 0.97, 8192, 3); err != nil {
		t.Fatal(err)
	}
	qkdKey, err := kc.Withdraw("client-1", 32)
	if err != nil {
		t.Fatal(err)
	}

	client, err := DialWith(srv.Addr(), "client-1", qkdKey, 42, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	data := []float64{0.8, -0.4, 0.6, 0.2}
	got, err := client.Compute(0, data)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range data {
		want := model.Weights[i]*x + model.Bias[i]
		if math.Abs(got[i]-want) > 0.05 {
			t.Errorf("slot %d = %v, want %v", i, got[i], want)
		}
	}
	if want := wantCmpDelay(t, client, 1, 0); client.LastTxDelay <= 0 || client.LastCmpDelay != want {
		t.Errorf("modeled delays: tx %v, cmp %v want the registry's %v", client.LastTxDelay, client.LastCmpDelay, want)
	}
	if blocks(srv, "client-1") != 1 {
		t.Errorf("server processed %d blocks, want 1", blocks(srv, "client-1"))
	}
}

func TestMultipleBlocksSameSession(t *testing.T) {
	model := Model{Weights: []float64{1, 1, 1, 1}}
	srv := startServer(t, model)
	client, err := DialWith(srv.Addr(), "c", []byte("qkd-material"), 7, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	for block := uint32(0); block < 3; block++ {
		data := []float64{float64(block) * 0.1, -0.2, 0.3}
		got, err := client.Compute(block, data)
		if err != nil {
			t.Fatalf("block %d: %v", block, err)
		}
		for i, want := range data {
			if math.Abs(got[i]-want) > 0.05 {
				t.Errorf("block %d slot %d = %v, want %v", block, i, got[i], want)
			}
		}
	}
	if blocks(srv, "c") != 3 {
		t.Errorf("server processed %d blocks, want 3", blocks(srv, "c"))
	}
}

func TestConcurrentClients(t *testing.T) {
	model := Model{Weights: []float64{2}}
	srv := startServer(t, model)

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			name := "client-" + string(rune('a'+id))
			client, err := DialWith(srv.Addr(), name, []byte(name), int64(100+id), DialConfig{})
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			got, err := client.Compute(0, []float64{0.25})
			if err != nil {
				errs <- err
				return
			}
			if math.Abs(got[0]-0.5) > 0.05 {
				errs <- &mismatchError{got[0]}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type mismatchError struct{ got float64 }

func (e *mismatchError) Error() string { return "mismatch: got wrong inference result" }

// evictedClient dials a session and evicts it by dialing another past a
// one-session cap, returning the client whose session is gone while its
// connection lives on.
func evictedClient(t *testing.T) *Client {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", ServerConfig{MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	var clients [2]*Client
	for i, id := range []string{"evicted", "resident"} {
		if clients[i], err = DialWith(srv.Addr(), id, []byte("k"), int64(5+i), DialConfig{}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { clients[i].Close() })
	}
	return clients[0]
}

// TestUnknownSessionRejected: a connection whose session the store has
// evicted is served no more.
func TestUnknownSessionRejected(t *testing.T) {
	if _, err := evictedClient(t).Compute(0, []float64{1}); err == nil || !strings.Contains(err.Error(), "unknown session") {
		t.Errorf("evicted session err = %v", err)
	}
}

func TestOversizedBlockRejected(t *testing.T) {
	srv := startServer(t, Model{})
	client, err := DialWith(srv.Addr(), "c", []byte("k"), 5, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	big := make([]float64, client.Slots()+1)
	if _, err := client.Compute(0, big); err == nil {
		t.Error("oversized block accepted")
	}
}

func TestDialValidation(t *testing.T) {
	srv := startServer(t, Model{})
	if _, err := DialWith(srv.Addr(), "", []byte("k"), 1, DialConfig{}); err == nil {
		t.Error("empty session id accepted")
	}
	if _, err := DialWith("127.0.0.1:1", "s", []byte("k"), 1, DialConfig{}); err == nil {
		t.Error("dead address accepted")
	}
}

// TestMaskedDataUnreadableByServer confirms the security property the
// pipeline exists for: what the server receives (masked block) is far from
// the plaintext, yet the client recovers the model output exactly.
func TestMaskedDataUnreadableByServer(t *testing.T) {
	srv := startServer(t, Model{Weights: []float64{1, 1, 1, 1}})
	client, err := DialWith(srv.Addr(), "c", []byte("secret-key-material"), 11, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	data := []float64{0.9, -0.9, 0.5, -0.5}
	padded := make([]float64, client.Slots())
	copy(padded, data)
	masked, err := client.cipher.Mask(client.key, client.nonce, 99, padded)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := range data {
		if math.Abs(masked[i]-data[i]) > 0.05 {
			moved++
		}
	}
	if moved < 2 {
		t.Errorf("masking barely changed the data (%d of %d slots moved)", moved, len(data))
	}
}
