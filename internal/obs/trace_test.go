package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

func mkTrace(session string, block uint32, at time.Time) BlockTrace {
	return BlockTrace{
		Session: session,
		Block:   block,
		ReqID:   uint64(block),
		Start:   at,
		Total:   3 * time.Millisecond,
		Spans: []Span{
			{Stage: "decode", Start: at, Dur: time.Millisecond},
			{Stage: "eval", Start: at.Add(time.Millisecond), Dur: 2 * time.Millisecond},
		},
	}
}

func TestSpanSum(t *testing.T) {
	bt := mkTrace("s", 1, time.Now())
	var sum time.Duration
	for _, sp := range bt.Spans {
		sum += sp.Dur
	}
	if sum != 3*time.Millisecond {
		t.Fatalf("span sum = %v, want 3ms", sum)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := NewTracer(4, 0)
	base := time.Unix(0, 0)
	for i := uint32(0); i < 10; i++ {
		tr.Record(mkTrace("s", i, base.Add(time.Duration(i)*time.Second)))
	}
	got := tr.Dump()
	if len(got) != 4 {
		t.Fatalf("ring kept %d traces, want 4", len(got))
	}
	for i, bt := range got {
		if want := uint32(6 + i); bt.Block != want {
			t.Errorf("trace %d: block %d, want %d (newest must win)", i, bt.Block, want)
		}
	}
}

// TestRingGrowsWithUse: a session's ring starts at a handful of slots and
// doubles toward its bound, so a short session holds a few traces' worth
// of memory, and a ring whose bound is no power of two fills to exactly
// the bound before it overwrites.
func TestRingGrowsWithUse(t *testing.T) {
	tr := NewTracer(0, 0)
	base := time.Unix(0, 0)
	for i := uint32(0); i < 5; i++ {
		tr.Record(mkTrace("short", i, base.Add(time.Duration(i)*time.Second)))
	}
	if c := cap(ringOf(tr, "short").buf); c > 8 {
		t.Errorf("a 5-trace session's ring holds %d slots, want ≤ 8", c)
	}
	tr = NewTracer(20, 0)
	for i := uint32(0); i < 50; i++ {
		tr.Record(mkTrace("long", i, base.Add(time.Duration(i)*time.Second)))
		if c := cap(ringOf(tr, "long").buf); c > 20 {
			t.Fatalf("ring grew to %d slots past its bound of 20", c)
		}
	}
	got := tr.Dump()
	if len(got) != 20 {
		t.Fatalf("ring kept %d traces, want 20", len(got))
	}
	for i, bt := range got {
		if want := uint32(30 + i); bt.Block != want {
			t.Errorf("trace %d: block %d, want %d", i, bt.Block, want)
		}
	}
}

// ringOf returns a session's ring, nil when the tracer holds none.
func ringOf(tr *Tracer, session string) *spanRing {
	if el := tr.rings[session]; el != nil {
		return el.Value.(*spanRing)
	}
	return nil
}

// TestTracerEvictsLeastRecentSession: at the session cap a new session's
// trace evicts the ring of the session recorded least recently, never
// the new trace, and recording into a held ring allocates nothing.
func TestTracerEvictsLeastRecentSession(t *testing.T) {
	tr := NewTracer(2, 3)
	base := time.Unix(0, 0)
	for i, id := range []string{"s0", "s1", "s2", "s0", "s3"} {
		tr.Record(mkTrace(id, uint32(i), base.Add(time.Duration(i)*time.Second)))
	}
	if got := len(tr.rings); got != 3 {
		t.Fatalf("tracer holds %d rings, want 3", got)
	}
	if got := tr.DumpFiltered("s1", 0); len(got) != 0 {
		t.Errorf("s1, recorded least recently, kept %d traces; want it evicted", len(got))
	}
	for id, want := range map[string]int{"s0": 2, "s2": 1, "s3": 1} {
		if got := len(tr.DumpFiltered(id, 0)); got != want {
			t.Errorf("%s: %d traces dumped, want %d", id, got, want)
		}
	}
	bt := mkTrace("s3", 9, base)
	if allocs := testing.AllocsPerRun(100, func() { tr.Record(bt) }); allocs != 0 {
		t.Errorf("recording into a held ring allocated %.0f times, want 0", allocs)
	}

	tr = NewTracer(0, 0)
	for i := 0; i < 1030; i++ {
		tr.Record(mkTrace(fmt.Sprintf("sess-%d", i), 0, base.Add(time.Duration(i)*time.Millisecond)))
	}
	if got := len(tr.rings); got != 1024 {
		t.Errorf("1030 sessions left %d rings, want the cap of 1024", got)
	}
	if got := tr.DumpFiltered("sess-1029", 0); len(got) != 1 {
		t.Errorf("the last session dumped %d traces, want 1", len(got))
	}
	if got := tr.DumpFiltered("sess-5", 0); len(got) != 0 {
		t.Errorf("sess-5, among the six oldest, kept %d traces", len(got))
	}
}

func TestDumpOrderedByStart(t *testing.T) {
	tr := NewTracer(8, 0)
	base := time.Unix(100, 0)
	tr.Record(mkTrace("b", 2, base.Add(2*time.Second)))
	tr.Record(mkTrace("a", 1, base.Add(1*time.Second)))
	tr.Record(mkTrace("c", 3, base.Add(3*time.Second)))
	got := tr.Dump()
	for i := 1; i < len(got); i++ {
		if got[i].Start.Before(got[i-1].Start) {
			t.Fatalf("Dump not sorted by start time at %d", i)
		}
	}
}

func TestWriteChrome(t *testing.T) {
	tr := NewTracer(8, 0)
	base := time.Unix(50, 0)
	tr.Record(mkTrace("sess-a", 7, base))
	tr.Record(mkTrace("sess-b", 9, base.Add(time.Second)))
	var b strings.Builder
	if err := WriteChromeTraces(&b, tr.Dump()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("WriteChromeTraces output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	var meta, blocks, spans int
	tidsSeen := make(map[int]bool)
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				continue
			}
			meta++
			if ev.Name != "thread_name" {
				t.Errorf("metadata event name %q", ev.Name)
			}
		case "X":
			if ev.Ts < 0 {
				t.Errorf("event %q has negative ts %g (timestamps must be relative to earliest)", ev.Name, ev.Ts)
			}
			tidsSeen[ev.Tid] = true
			if ev.Name == "block" {
				blocks++
				if ev.Dur != 3000 {
					t.Errorf("block dur = %g µs, want 3000", ev.Dur)
				}
				if _, ok := ev.Args["session"]; !ok {
					t.Error("block event missing session arg")
				}
			} else {
				spans++
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 2 || blocks != 2 || spans != 4 {
		t.Fatalf("meta/blocks/spans = %d/%d/%d, want 2/2/4", meta, blocks, spans)
	}
	if len(tidsSeen) != 2 {
		t.Fatalf("sessions must land on distinct tid lanes, saw %d", len(tidsSeen))
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteChromeTraces(&b, NewTracer(0, 0).Dump()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(b.String())) {
		t.Fatal("empty tracer must still emit valid JSON")
	}
}
