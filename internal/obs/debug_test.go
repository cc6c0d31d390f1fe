package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestDebugPlane(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("quhe_wire_frames_total", "", "dir", "in").Add(5)
	tr := NewTracer(4, 0)
	tr.Record(mkTrace("s", 1, time.Unix(10, 0)))
	ds, err := ServeDebug("127.0.0.1:0", DebugConfig{
		Registry: reg,
		Tracer:   tr,
		Plan:     func() any { return map[string]any{"lambda": 65536} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	base := "http://" + ds.Addr()

	code, ctype, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content-type %q", ctype)
	}
	if !strings.Contains(body, `quhe_wire_frames_total{dir="in"} 5`) {
		t.Errorf("/metrics missing counter sample:\n%s", body)
	}

	code, ctype, body = get(t, base+"/debug/plan")
	if code != 200 || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/debug/plan status %d content-type %q", code, ctype)
	}
	if !strings.Contains(body, "65536") {
		t.Errorf("/debug/plan body missing plan content: %s", body)
	}

	code, _, body = get(t, base+"/debug/trace")
	if code != 200 || !strings.Contains(body, "traceEvents") {
		t.Fatalf("/debug/trace status %d body %q", code, body)
	}

	code, _, _ = get(t, base+"/debug/pprof/cmdline")
	if code != 200 {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

func TestDebugTraceParams(t *testing.T) {
	tr := NewTracer(4, 0)
	tr.Record(mkTrace("alpha", 1, time.Unix(10, 0)))
	tr.Record(mkTrace("beta", 2, time.Unix(11, 0)))
	ds, err := ServeDebug("127.0.0.1:0", DebugConfig{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	base := "http://" + ds.Addr()

	// Valid filters narrow the dump.
	code, _, body := get(t, base+"/debug/trace?session=alpha&limit=10")
	if code != 200 {
		t.Fatalf("filtered dump status %d", code)
	}
	if !strings.Contains(body, "alpha") || strings.Contains(body, "beta") {
		t.Errorf("session filter not applied: %s", body)
	}

	// Malformed parameters are rejected with 400, not served or ignored.
	for _, q := range []string{
		"?limit=0", "?limit=-1", "?limit=abc", "?limit=100001",
		"?session=" + strings.Repeat("x", 257),
		"?session=a%00b",
	} {
		if code, _, _ := get(t, base+"/debug/trace"+q); code != 400 {
			t.Errorf("%s: status %d, want 400", q, code)
		}
	}
}

func TestDebugKeyLedger(t *testing.T) {
	ds, err := ServeDebug("127.0.0.1:0", DebugConfig{
		KeyLedger: func() any { return map[string]int{"withdrawals": 7} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	base := "http://" + ds.Addr()

	code, ctype, body := get(t, base+"/debug/keyledger")
	if code != 200 || !strings.HasPrefix(ctype, "application/json") || !strings.Contains(body, "7") {
		t.Errorf("/debug/keyledger = %d %q %q", code, ctype, body)
	}
}

func TestDebugPlaneNilHooks(t *testing.T) {
	ds, err := ServeDebug("127.0.0.1:0", DebugConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	base := "http://" + ds.Addr()
	if code, _, _ := get(t, base+"/debug/plan"); code != 404 {
		t.Errorf("/debug/plan without Plan hook: status %d, want 404", code)
	}
	if code, _, _ := get(t, base+"/debug/trace"); code != 404 {
		t.Errorf("/debug/trace without Tracer: status %d, want 404", code)
	}
	if code, _, _ := get(t, base+"/debug/keyledger"); code != 404 {
		t.Errorf("/debug/keyledger without hook: status %d, want 404", code)
	}
	if code, _, body := get(t, base+"/metrics"); code != 200 || body != "" {
		t.Errorf("/metrics without Registry: status %d body %q, want empty 200", code, body)
	}
}
