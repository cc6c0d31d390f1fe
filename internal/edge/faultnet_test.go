package edge

// The fault injector of the chaos suite: seeded transport faults on any
// net.Conn, decided per Read/Write call — a delay, a stall long enough to
// trip an idle deadline, a flipped bit, a partial write, or a drop that
// transfers a strict prefix and closes the connection mid-frame. Each
// wrapped connection draws from its own PRNG, derived from the injector
// seed and its admission index, so a seed replays the same faults per
// connection however connections interleave, and its counters show which
// faults fired.

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// errInjectedDrop is the error returned by a Read/Write the injector
// chose to kill; the underlying connection is closed as a side effect.
var errInjectedDrop = errors.New("injected connection drop")

// faultSpec gives the fault probabilities for one transfer direction. All
// probabilities are per Read/Write call, evaluated independently in the
// order delay, stall, partial, corrupt, drop; zero values inject nothing.
type faultSpec struct {
	// DelayProb delays the call by a uniform duration in
	// [DelayMin, DelayMax].
	DelayProb float64
	DelayMin  time.Duration
	DelayMax  time.Duration
	// StallProb sleeps Stall before the transfer — long enough to trip a
	// peer's idle deadline, unlike the jittery DelayProb.
	StallProb float64
	Stall     time.Duration
	// PartialProb truncates a write to a strict prefix (no-op on reads
	// and on 1-byte transfers).
	PartialProb float64
	// CorruptProb flips one random bit of the transferred bytes.
	CorruptProb float64
	// DropProb transfers a strict prefix and then closes the connection.
	DropProb float64
}

func (s faultSpec) zero() bool {
	return s.DelayProb == 0 && s.StallProb == 0 && s.PartialProb == 0 &&
		s.CorruptProb == 0 && s.DropProb == 0
}

// faultConfig seeds a faultInjector. The same seed over the same
// per-connection call sequence reproduces the same faults.
type faultConfig struct {
	Seed  int64
	Read  faultSpec
	Write faultSpec
}

// faultInjector wraps connections with a seeded fault schedule.
type faultInjector struct {
	cfg      faultConfig
	connSeq  atomic.Int64
	delays   atomic.Int64
	stalls   atomic.Int64
	partials atomic.Int64
	corrupts atomic.Int64
	drops    atomic.Int64

	mu   sync.Mutex
	live map[*faultConn]struct{}
}

// newFaultInjector builds an injector from the config.
func newFaultInjector(cfg faultConfig) *faultInjector {
	return &faultInjector{cfg: cfg, live: make(map[*faultConn]struct{})}
}

// Wrap returns conn with the injector's fault schedule applied. Each
// wrapped connection gets an independent deterministic PRNG derived from
// the injector seed and the wrap order.
func (inj *faultInjector) Wrap(conn net.Conn) *faultConn {
	seq := inj.connSeq.Add(1)
	// splitmix64-style scramble so consecutive connection seeds are
	// decorrelated.
	s := uint64(inj.cfg.Seed) + uint64(seq)*0x9E3779B97F4A7C15
	s ^= s >> 30
	s *= 0xBF58476D1CE4E5B9
	s ^= s >> 27
	c := &faultConn{
		Conn: conn,
		inj:  inj,
		rngR: rand.New(rand.NewSource(int64(s))),
		rngW: rand.New(rand.NewSource(int64(s ^ 0xD1B54A32D192ED03))),
	}
	inj.mu.Lock()
	inj.live[c] = struct{}{}
	inj.mu.Unlock()
	return c
}

// Dialer returns a dial function (as the DialConfig dialer seam takes it)
// that dials TCP with the given timeout and wraps the result.
func (inj *faultInjector) Dialer(timeout time.Duration) func(network, addr string) (net.Conn, error) {
	return func(network, addr string) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return inj.Wrap(conn), nil
	}
}

// Listener wraps a listener so every accepted connection is injected.
func (inj *faultInjector) Listener(ln net.Listener) net.Listener {
	return &faultListener{Listener: ln, inj: inj}
}

// CloseAll force-closes every live wrapped connection — the chaos
// "pull the plug" switch.
func (inj *faultInjector) CloseAll() int {
	inj.mu.Lock()
	conns := make([]*faultConn, 0, len(inj.live))
	for c := range inj.live {
		conns = append(conns, c)
	}
	inj.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return len(conns)
}

func (inj *faultInjector) forget(c *faultConn) {
	inj.mu.Lock()
	delete(inj.live, c)
	inj.mu.Unlock()
}

type faultListener struct {
	net.Listener
	inj *faultInjector
}

func (l *faultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.inj.Wrap(conn), nil
}

// faultConn is a net.Conn with an attached fault schedule.
type faultConn struct {
	net.Conn
	inj *faultInjector

	// Reads and writes run on independent goroutines, so each direction
	// draws from its own PRNG under its own lock: a direction's fault
	// schedule depends only on that direction's call sequence, never on
	// goroutine interleaving.
	muR  sync.Mutex
	rngR *rand.Rand
	muW  sync.Mutex
	rngW *rand.Rand

	closed atomic.Bool
}

// faultPlan is one call's fault decision, drawn under mu so concurrent
// readers/writers still consume the PRNG in a serialized order.
type faultPlan struct {
	delay   time.Duration
	stall   time.Duration
	partial int // >0: truncate transfer to this many bytes
	corrupt int // >=0: flip this bit offset (mod len), -1: none
	drop    int // >=0: transfer this prefix then kill the conn, -1: none
}

func (c *faultConn) draw(spec faultSpec, n int, write bool) faultPlan {
	p := faultPlan{corrupt: -1, drop: -1}
	if spec.zero() || n == 0 {
		return p
	}
	mu, rng := &c.muR, c.rngR
	if write {
		mu, rng = &c.muW, c.rngW
	}
	mu.Lock()
	defer mu.Unlock()
	if spec.DelayProb > 0 && rng.Float64() < spec.DelayProb {
		span := spec.DelayMax - spec.DelayMin
		p.delay = spec.DelayMin
		if span > 0 {
			p.delay += time.Duration(rng.Int63n(int64(span)))
		}
	}
	if spec.StallProb > 0 && rng.Float64() < spec.StallProb {
		p.stall = spec.Stall
	}
	if write && spec.PartialProb > 0 && n > 1 && rng.Float64() < spec.PartialProb {
		p.partial = 1 + rng.Intn(n-1)
	}
	if spec.CorruptProb > 0 && rng.Float64() < spec.CorruptProb {
		p.corrupt = rng.Intn(n * 8)
	}
	if spec.DropProb > 0 && rng.Float64() < spec.DropProb {
		p.drop = rng.Intn(n)
	}
	return p
}

// Read applies the read-direction schedule: optional delay/stall first,
// then a normal read whose result may have one bit flipped, or — on a
// drop — a truncated result followed by connection close and
// errInjectedDrop.
func (c *faultConn) Read(b []byte) (int, error) {
	p := c.draw(c.inj.cfg.Read, len(b), false)
	c.sleep(p)
	n, err := c.Conn.Read(b)
	if n > 0 && p.corrupt >= 0 {
		bit := p.corrupt % (n * 8)
		b[bit/8] ^= 1 << (bit % 8)
		c.inj.corrupts.Add(1)
	}
	if err == nil && p.drop >= 0 {
		c.inj.drops.Add(1)
		c.Close()
		if p.drop < n {
			n = p.drop
		}
		if n > 0 {
			return n, nil // deliver the prefix; the next read fails
		}
		return 0, errInjectedDrop
	}
	return n, err
}

// Write applies the write-direction schedule: optional delay/stall, then
// the (possibly corrupted) bytes — all of them, a partial prefix with a
// short-write count, or a drop prefix followed by close.
func (c *faultConn) Write(b []byte) (int, error) {
	p := c.draw(c.inj.cfg.Write, len(b), true)
	c.sleep(p)
	out := b
	if p.corrupt >= 0 && len(b) > 0 {
		out = append([]byte(nil), b...)
		out[p.corrupt/8] ^= 1 << (p.corrupt % 8)
		c.inj.corrupts.Add(1)
	}
	if p.drop >= 0 {
		c.inj.drops.Add(1)
		if p.drop > 0 {
			c.Conn.Write(out[:p.drop])
		}
		c.Close()
		return p.drop, errInjectedDrop
	}
	if p.partial > 0 && p.partial < len(out) {
		c.inj.partials.Add(1)
		n, err := c.Conn.Write(out[:p.partial])
		if err != nil {
			return n, err
		}
		// Short write with no error: bufio/io.Writer callers surface
		// io.ErrShortWrite, exercising their short-write handling.
		return n, nil
	}
	n, err := c.Conn.Write(out)
	return n, err
}

func (c *faultConn) sleep(p faultPlan) {
	if p.delay > 0 {
		c.inj.delays.Add(1)
		time.Sleep(p.delay)
	}
	if p.stall > 0 {
		c.inj.stalls.Add(1)
		time.Sleep(p.stall)
	}
}

// Close closes the underlying connection and drops it from the
// injector's live set.
func (c *faultConn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.inj.forget(c)
	return c.Conn.Close()
}

// pipePair returns both ends of an in-memory connection.
func pipePair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// faultSchedule replays a fixed per-direction call sequence against a wrapped
// conn and records which faults fired at which call index.
func faultSchedule(t *testing.T, seed int64, spec faultSpec, calls int) []faultPlan {
	t.Helper()
	inj := newFaultInjector(faultConfig{Seed: seed, Write: spec})
	a, b := pipePair(t)
	go io.Copy(io.Discard, b)
	c := inj.Wrap(a)
	plans := make([]faultPlan, 0, calls)
	for i := 0; i < calls; i++ {
		plans = append(plans, c.draw(spec, 64, true))
	}
	return plans
}

func TestFaultDeterministicSchedule(t *testing.T) {
	spec := faultSpec{
		DelayProb:   0.3,
		DelayMin:    time.Microsecond,
		DelayMax:    5 * time.Microsecond,
		PartialProb: 0.2,
		CorruptProb: 0.1,
		DropProb:    0.05,
	}
	first := faultSchedule(t, 42, spec, 200)
	second := faultSchedule(t, 42, spec, 200)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("call %d: schedule diverged: %+v vs %+v", i, first[i], second[i])
		}
	}
	other := faultSchedule(t, 43, spec, 200)
	same := true
	for i := range first {
		if first[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestFaultZeroSpecIsTransparent(t *testing.T) {
	inj := newFaultInjector(faultConfig{Seed: 1})
	a, b := pipePair(t)
	c := inj.Wrap(a)
	payload := []byte("through the wire untouched")
	go func() {
		c.Write(payload)
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload altered: %q", got)
	}
	if n := inj.delays.Load() + inj.stalls.Load() + inj.partials.Load() + inj.corrupts.Load() + inj.drops.Load(); n != 0 {
		t.Fatalf("zero spec fired %d faults", n)
	}
}

func TestFaultDropClosesConn(t *testing.T) {
	inj := newFaultInjector(faultConfig{Seed: 7, Write: faultSpec{DropProb: 1}})
	a, b := pipePair(t)
	go io.Copy(io.Discard, b)
	c := inj.Wrap(a)
	_, err := c.Write(make([]byte, 128))
	if !errors.Is(err, errInjectedDrop) {
		t.Fatalf("want errInjectedDrop, got %v", err)
	}
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write on dropped conn succeeded")
	}
	if inj.drops.Load() == 0 {
		t.Fatal("drop not counted")
	}
}

func TestFaultCorruptFlipsExactlyOneBit(t *testing.T) {
	inj := newFaultInjector(faultConfig{Seed: 3, Write: faultSpec{CorruptProb: 1}})
	a, b := pipePair(t)
	c := inj.Wrap(a)
	payload := make([]byte, 64)
	go c.Write(payload)
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	flipped := 0
	for i := range got {
		d := got[i] ^ payload[i]
		for ; d != 0; d &= d - 1 {
			flipped++
		}
	}
	if flipped != 1 {
		t.Fatalf("want exactly 1 flipped bit, got %d", flipped)
	}
}

func TestFaultCloseAll(t *testing.T) {
	inj := newFaultInjector(faultConfig{Seed: 9})
	a1, _ := pipePair(t)
	a2, _ := pipePair(t)
	c1, c2 := inj.Wrap(a1), inj.Wrap(a2)
	if n := inj.CloseAll(); n != 2 {
		t.Fatalf("CloseAll closed %d conns, want 2", n)
	}
	if _, err := c1.Write([]byte("x")); err == nil {
		t.Fatal("conn 1 survived CloseAll")
	}
	if _, err := c2.Write([]byte("x")); err == nil {
		t.Fatal("conn 2 survived CloseAll")
	}
	if n := inj.CloseAll(); n != 0 {
		t.Fatalf("second CloseAll found %d conns, want 0", n)
	}
}

func TestFaultListenerWraps(t *testing.T) {
	inj := newFaultInjector(faultConfig{Seed: 11, Read: faultSpec{CorruptProb: 1}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	fln := inj.Listener(ln)
	done := make(chan []byte, 1)
	go func() {
		conn, err := fln.Accept()
		if err != nil {
			done <- nil
			return
		}
		defer conn.Close()
		buf := make([]byte, 8)
		if _, err := io.ReadFull(conn, buf); err != nil {
			done <- nil
			return
		}
		done <- buf
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()
	sent := []byte{0, 0, 0, 0, 0, 0, 0, 0}
	if _, err := client.Write(sent); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := <-done
	if got == nil {
		t.Fatal("server read failed")
	}
	if bytes.Equal(got, sent) {
		t.Fatal("read-side corruption did not fire through the listener")
	}
}
