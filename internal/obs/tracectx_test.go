package obs

import (
	"strings"
	"testing"
	"time"
)

func TestTraceContextRoundTrip(t *testing.T) {
	cases := []TraceContext{
		{TraceID: 1, Parent: 2, Sampled: true},
		{TraceID: 0xdeadbeefcafef00d, Parent: traceParentMask, Sampled: false},
		{TraceID: 1<<64 - 1, Parent: 0, Sampled: true},
		{},
	}
	for _, tc := range cases {
		b := tc.AppendBinary(nil)
		if len(b) != TraceContextLen {
			t.Fatalf("encoded %d bytes, want %d", len(b), TraceContextLen)
		}
		got, err := DecodeTraceContext(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", tc, err)
		}
		if got != tc {
			t.Errorf("round trip %+v → %+v", tc, got)
		}
	}
}

func TestTraceContextParentMasked(t *testing.T) {
	// Parent IDs wider than 56 bits lose their high byte on the wire —
	// the flags byte owns it — so encoding must mask deterministically.
	tc := TraceContext{TraceID: 7, Parent: 1<<64 - 1, Sampled: true}
	got, err := DecodeTraceContext(tc.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Parent != traceParentMask {
		t.Errorf("parent %x, want masked %x", got.Parent, traceParentMask)
	}
	if !got.Sampled {
		t.Error("sampled flag lost")
	}
}

func TestTraceContextDecodeErrors(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 64} {
		if _, err := DecodeTraceContext(make([]byte, n)); err == nil {
			t.Errorf("decode of %d bytes succeeded, want error", n)
		}
	}
}

func TestTraceContextValid(t *testing.T) {
	if (TraceContext{}).Valid() {
		t.Error("zero context must be invalid")
	}
	if !(TraceContext{TraceID: 1}).Valid() {
		t.Error("nonzero trace ID must be valid")
	}
}

func TestDumpFiltered(t *testing.T) {
	tr := NewTracer(8, 0)
	base := time.Unix(0, 0)
	for i := uint32(0); i < 4; i++ {
		tr.Record(mkTrace("a", i, base.Add(time.Duration(i)*time.Second)))
	}
	tr.Record(mkTrace("b", 100, base.Add(10*time.Second)))

	if got := tr.DumpFiltered("a", 0); len(got) != 4 {
		t.Fatalf("session filter kept %d traces, want 4", len(got))
	}
	got := tr.DumpFiltered("a", 2)
	if len(got) != 2 {
		t.Fatalf("limit kept %d traces, want 2", len(got))
	}
	// The newest traces must survive truncation.
	if got[0].Block != 2 || got[1].Block != 3 {
		t.Errorf("limit kept blocks %d,%d, want 2,3", got[0].Block, got[1].Block)
	}
	if got := tr.DumpFiltered("nope", 0); len(got) != 0 {
		t.Errorf("unknown session returned %d traces", len(got))
	}
}

func TestWriteChromeMergedProcs(t *testing.T) {
	// A merged client+server dump: same trace ID on both sides, distinct
	// process lanes.
	base := time.Unix(0, 0)
	client := mkTrace("s", 1, base)
	client.Proc = "client"
	client.TraceID, client.SpanID = 0xabc, 0x111
	server := mkTrace("s", 1, base.Add(time.Millisecond))
	server.TraceID, server.Parent = 0xabc, 0x111

	var b strings.Builder
	if err := WriteChromeTraces(&b, []BlockTrace{client, server}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`"name":"client"`, `"name":"server"`,
		`"trace_id":"` + hexID(0xabc) + `"`,
		`"parent_span":"` + hexID(0x111) + `"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged dump missing %s", want)
		}
	}
}
