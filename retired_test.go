package quhe_test

import (
	"bytes"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// retiredRow keeps one retired name out of the tree. The pattern is a Go
// regexp matched line by line, as git grep matches. Paths and exclude are
// relative to the root: an entry starting with * matches every path ending
// in the rest, as the git pathspec '*.go' does, and any other entry names a
// file or the directory it is under. A row with a nil want fails on any
// matching line; a row with a want fails unless each file's count of
// matching lines is exactly its entry.
type retiredRow struct {
	name    string
	pattern string
	paths   []string
	exclude []string
	want    map[string]int
	why     string
}

// The exclusions most rows share: the logs that record what was retired,
// and the benchmark, which changes only with its own archetype.
var (
	notBench      = []string{"benchmark"}
	notesOrBench  = []string{"CHANGES.md", "ROADMAP.md", "benchmark"}
	notTests      = []string{"*_test.go"}
	goFiles       = []string{"*.go"}
	goAndMarkdown = []string{"*.go", "*.md"}
)

// retiredNames is the table of retired names: a simplicity change that
// retires a name adds its row here.
var retiredNames = []retiredRow{
	{name: "one cost model", pattern: `costmodel\.(EvalCycles|CmpCycles|ComputeDelay|TotalServerCycles)`,
		paths: []string{"internal/edge", "internal/control", "internal/serve", "internal/he", "cmd"}, why: "the paper's fitted curves stay out of the serving stack; a served block is priced by the profile registry"},
	{name: "one inner-product primitive", pattern: `MulCoeffwiseMontgomeryThenAdd|AutomorphismNTTMulMontgomeryThenAdd`,
		paths: goFiles, why: "the per-term MACs stay retired; inner products are lazy sums"},
	{name: "one measurement surface", pattern: `SetParallelism|DisableObs|BENCH_[a-z]+\.json`,
		paths: goAndMarkdown, exclude: notesOrBench, why: "the root BENCH reports and the two knobs only they set stay retired; go run ./benchmark measures the served stack"},
	{name: "one way to serve a block", pattern: `frameBatch|Batch(Request|Reply|Item)\b|\b(BatchWindow|MaxBatch|RetryBudget|ReconnectAttempts|ReconnectBackoff|ReconnectBackoffMax)\b|\b(Compute|MatVec|ComputeBatch|Rekey|EnableMatVec|Wait)Ctx\b`,
		paths: goFiles, exclude: notBench, why: "the batch wire path, the options nobody set and the Ctx entry points nobody called stay retired"},
	{name: "one fan-out primitive, one runtime per profile", pattern: `ring\.Parallel(If)?\(|\bParallelIf\b|PoolSet|\bSetShare\b`,
		paths: goFiles, exclude: notBench, why: "Parallel/ParallelIf, PoolSet and the share weights stay retired; ring.ForEach is the one fan-out"},
	{name: "no hand-built task slices in the HE kernels", pattern: `\[\]func\(\)`,
		paths: []string{"internal/he"}, exclude: notTests, why: "per-limb work fans out through ring.ForEach, not through slices of closures"},
	{name: "one transform", pattern: `func \(m \*Modulus\) (NTT|INTT)\(`,
		paths: []string{"internal/he/ring"}, want: map[string]int{"internal/he/ring/ntt.go": 2}, why: "one forward and one inverse NTT, radix 4, and no radix-2 fallback beside them"},
	{name: "one Stage-1 program", pattern: `quhe/internal/optimize`,
		paths: []string{"internal/control"}, why: "the planner solves qnet.Stage1; it does not carry its own solver"},
	{name: "one wire encoding", pattern: `WireFormat`,
		paths: goFiles, why: "one wire protocol: the pre-RNS wire-format error and its code stay retired"},
	{name: "one Stage-1 solver", pattern: `\bMinimizeProjGrad\b|\bPGOptions\b|\bPGResult\b|\bStage1ProjGrad\b`,
		paths: goFiles, exclude: []string{"*_test.go", "benchmark"}, why: "the planner and the reproduction run Algorithm 1; projected gradient stays in test code as an oracle"},
	{name: "one grow rule for a wire buffer", pattern: `\*\s*5\s*/\s*4|/4\)`,
		paths: []string{"internal/he/ring/wire.go"}, why: "the codecs size a frame once; the hand-rolled 5/4 regrowth stays retired"},
	{name: "one Setup frame without a public key", pattern: `req\.PK|PK:\s`,
		paths: []string{"internal/edge", "internal/serve"}, why: "the server never encrypts under a client's key, so none travels or is stored"},
	{name: "one load tool", pattern: `edgeload|KeyLedgerJSON`,
		paths: goAndMarkdown, exclude: notesOrBench, why: "the served stack is measured by go run ./benchmark; the retired load generator and the option only it set stay retired"},
	{name: "one rotation key per frame", pattern: `ErrRotKeysTooLarge|checkRotKeysFrame|GaloisKeySetBinarySize`,
		paths: goFiles, exclude: notBench, why: "the whole-set frame, its size guard and the size helper only the guard used stay retired"},
	{name: "one session reply", pattern: `\b(Setup|Profile|Rekey|RotKeys|Resume)Reply\b|frameMatVecReply`,
		paths: goFiles, exclude: notBench, why: "the five session reply types, their codecs and frames, and the matvec reply frame stay retired"},
	{name: "one client keystream", pattern: `func \(c \*Cipher\) [cC]oeffBlock\(|coeffScratch`,
		paths: []string{"internal/transcipher"}, exclude: notTests, why: "the client streams the public coefficients; the allocating expansion stays in test code"},
	{name: "one derivative path", pattern: `\bFuncIneq\b|safeGradient|safeHessian|sparseHessian|delayGrad|Stage3Options|func Hessian\(`,
		paths: goFiles, exclude: notTests, why: "the barrier takes exact derivatives; the finite-difference barrier path and the Stage 3 knobs stay retired"},
	{name: "one chain depth", pattern: `\bchainDepth\b`,
		paths: goFiles, why: "profiles take the depth their served ops consume"},
	{name: "one edge operator and client surface", pattern: `\bServer\.Drain\b|\.Drain\(|\.Draining\b|\bDraining\(|\bObsRegistry\b|\bRekeyWith\b|\bDialQKD\(|\bWriteChrome\b|\bSpanSum\b|\bCodeDraining\b|\bErrDraining\b|\bedge\.Dial\(`,
		paths: goAndMarkdown, exclude: notesOrBench, why: "the drain, the zero-config dials, the explicit-material rekey, the registry accessor and the obs helpers only tests called stay retired"},
	{name: "one session table", pattern: `\bNewStoreShards\b|\bDefaultShards\b|\bstoreShard\b|\bsessionTTL\b|\bObserveAdmission\b`,
		paths: goFiles, exclude: notBench, why: "the store is one exact LRU under one lock, and telemetry lives as long as the store keeps the session, not for an idle TTL"},
	{name: "one observability plane", pattern: `\bRotationObserver\b|\bDropped\(\)|quhe_trace_dropped_total|\b(Metrics|Obs)\s+\*obs\.Registry|\b(Metrics|Obs):\s|\bcfg\.(Metrics|Obs|ClientID)\b|\bClientID\s+func\(|\bClientID:\s+func|\bclientID func\(route int\)`,
		paths: goFiles, exclude: notBench, why: "control series go on the server's registry, the tracer evicts instead of dropping, and the optional controller hooks and the config fields nobody set stay retired"},
	{name: "one observability plane: the planner has no log hook", pattern: `\bLogf\s+func|cfg\.Logf`,
		paths: []string{"internal/control"}, why: "a failed replan is counted on the server's registry; nothing else in the planner was logged"},
	{name: "keys as wide as their level", pattern: `Tower\.Limbs\(\)|func \(t \*Tower\) Limbs\(`,
		paths: goFiles, exclude: notBench, why: "a key's special limb sits where the key's own width puts it, not after the whole chain, so the chain's limb count that located it stays retired"},
	{name: "one Stage-1 solve", pattern: `\.Solve\(\)`,
		paths: []string{"internal/control"}, exclude: notTests, want: map[string]int{"internal/control/controller.go": 1},
		why: "the rate allocation's inputs are fixed at New, which solves it; a replan re-solves only what telemetry moves"},
	{name: "a session is its connection", pattern: `frameResume|Resume(Request|Challenge|Proof|Auth|Window)|\bReconnect\b|SweepExpired|(Code|Err)ResumeRejected|CauseResumeRotation|\b(handleResume|resumeHandshake|tryRecover|reconnectOnce|replayPending|reapLoop)\b`,
		paths: []string{"*.go", "README.md"}, exclude: notBench,
		why: "a session ends with the connection that registered it, so the resume plane — its frames, credential, knobs, reaper and client recovery — stays retired from the code and the README"},
	{name: "a connection is its session", pattern: `\bframeHello\b|\bOnQueueWait\b|quhe_serve_queue_wait_seconds|\bsessionTable\b|\browOf\b`,
		paths: []string{"*.go", "README.md"}, exclude: notBench,
		why: "the opening's first frame carries the version, so the hello stays retired; after Setup no frame names a session, so the per-connection session table and its row builder stay retired; a block's queue wait is measured once, as the queue_wait stage"},
	{name: "every knob has a production writer", pattern: `\bRouteOf\b|\bSampleFrac\b|\bRSSamples\b|\bInitTemp\b|\bCooling\b|\bStage2Exhaustive\b|\bMaximizeExhaustive\b|\buseBnB\b|\bretryBackoff(Base|Max)\b|\bcstageRetry\b|retry_backoff|\bjitter\(|\bSheds\(\)|quhe_serve_scheduler_sheds_total`,
		paths: goFiles, exclude: []string{"*_test.go", "benchmark"},
		why: "config fields nothing but tests set stay retired with the code behind them: routes are a hash, the QBER sample, RS budget and annealing schedule are constants, Stage 2 has one solver (its exhaustive oracle is test code), a confirmed rotation's resend does not sleep, and a shed is counted once"},
	{name: "every knob has a production writer: the planner's weights and cap", pattern: `\bSecurityWeights\b|cfg\.MaxSessions|\bMaxSessions\s+int\b|\bMaxSessions:`,
		paths: []string{"internal/control"}, exclude: notTests,
		why: "every route's importance weight is 1 and the plan's admit capacity is the key stock's; core.Config.SecurityWeights and ServerConfig.MaxSessions stay"},
	{name: "every knob has a production writer: the dial's route label", pattern: `\bRoute\s+string\b|dcfg\.Route\b`,
		paths: []string{"internal/edge"}, exclude: notTests,
		why: "no wiring named a session's route at dial; a route comes with ROADMAP item 2"},
	{name: "count a block once", pattern: `SLOTracker|SLOSet|DefaultSLOWindows|quhe_slo_|/debug/slo|sloObjective|sloLatencyTarget|evalHists`,
		paths: []string{"*.go", "README.md"}, exclude: notBench,
		why: "a computed block lands once in quhe_serve_compute_total and once in its profile's quhe_eval_seconds, held on the profile's runtime; objectives are expressions over those, so the tracker plane, its page and the second histogram map stay retired"},
	{name: "the grant is the session", pattern: `incomplete setup|incomplete rekey|parameter mismatch: client logN`,
		paths: []string{"*.go", "README.md"}, exclude: notBench,
		why: "Setup carries only keys and registers the profile query's grant, so no server code checks a session ID, profile, LogN or Depth a client declared; the query refuses an empty ID, and InstallKey refuses a key of the wrong length"},
	{name: "one encoder transform", pattern: `zetaInv|zetaFwd|func fft\(|interpolate\(|spectrum\(`,
		paths: []string{"internal/he"}, exclude: notTests,
		why: "the encoder runs one N/2-point special FFT each way, with its tables held by the context; the N-point transform over a conjugate-symmetric vector, its ζ^k twist tables and the helpers around it stay retired"},
	{name: "one Stage-2 program", pattern: `\bMaximizeBnB\b|\bBnBProblem\b|\bBnBResult\b|\bIncumbents\b|\bchooseRouteProfiles\b|\brouteCandidates\b`,
		paths: goFiles, exclude: notBench,
		why: "the λ choice is qnet.Stage2, solved by its one branch and bound for the reproduction and the live planner alike, so the closure-generic solver, its incumbent trace and the planner's per-route scoring loop stay retired"},
	{name: "one queue bound", pattern: `QueueHighWater|MaxCapacity|\.Resize\(`,
		paths: []string{"*.go", "README.md"}, exclude: notBench,
		why: "the program has no queue term, so the plan carries no queue envelope: the scheduler's built depth is its one bound, with or without a controller"},
	{name: "one session bound", pattern: `SetMaxSessions|storeCeiling|\.MaxSessions\(\)`,
		paths: []string{"*.go", "README.md"}, exclude: notBench,
		why: "the plan's admission capacity is enforced at Setup only, so the store keeps the cap it was built with: its setter, its getter and the controller's copy of the built ceiling stay retired"},
}

// TestRetiredNames fails on every retired name the table finds in the tree.
func TestRetiredNames(t *testing.T) {
	for _, msg := range checkRetired(t, ".", retiredNames) {
		t.Error(msg)
	}
}

// TestRetiredFixture runs the walk over a fixture tree in which one row's
// name sits in an included .go and .md file, in a test file, under an
// excluded directory and in CHANGES.md. Only the first two are reported;
// so are a path entry that names no file and a count row whose count is
// off.
func TestRetiredFixture(t *testing.T) {
	rows := []retiredRow{
		{name: "gone", pattern: `\bretiredName\b`, paths: goAndMarkdown, exclude: []string{"*_test.go", "old", "CHANGES.md"}},
		{name: "renamed path", pattern: `oldCodec`, paths: []string{"live.go", "wire.go"}},
		{name: "one definition", pattern: `^func defined\(`, paths: goFiles, want: map[string]int{"live.go": 1}},
	}
	got := checkRetired(t, filepath.Join("testdata", "retired"), rows)
	want := []string{
		"gone: live.go:4: retiredName()",
		"gone: notes.md:1: retiredName is in use here.",
		"renamed path: wire.go names no file",
		"one definition: matching lines by file map[live.go:2], want map[live.go:1]",
	}
	if !slices.Equal(got, want) {
		t.Errorf("reported\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// checkRetired walks root, skipping .git, this file and its fixture
// directory, and returns one message per failure of the rows.
func checkRetired(t *testing.T, root string, rows []retiredRow) []string {
	t.Helper()
	res := make([]*regexp.Regexp, len(rows))
	counts := make([]map[string]int, len(rows)) // matching lines by file
	found := make([]map[string]bool, len(rows)) // the path entries that name a file
	var msgs []string
	for i, row := range rows {
		res[i] = regexp.MustCompile(row.pattern)
		counts[i], found[i] = map[string]int{}, map[string]bool{}
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		switch {
		case rel == ".git" || rel == "testdata/retired":
			return filepath.SkipDir
		case d.IsDir() || rel == "retired_test.go":
			return nil
		}
		var data []byte
		for i, row := range rows {
			included := false
			for _, spec := range row.paths {
				if pathspec(spec, rel) && !slices.ContainsFunc(row.exclude, func(ex string) bool { return pathspec(ex, rel) }) {
					found[i][spec], included = true, true
				}
			}
			if !included {
				continue
			}
			if data == nil {
				if data, err = os.ReadFile(path); err != nil {
					return err
				}
			}
			for n, line := range bytes.Split(data, []byte("\n")) {
				if res[i].Match(line) {
					counts[i][rel]++
					if row.want == nil {
						msgs = append(msgs, fmt.Sprintf("%s: %s:%d: %s", row.name, rel, n+1, bytes.TrimSpace(line)))
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		for _, spec := range row.paths {
			if !found[i][spec] {
				msgs = append(msgs, fmt.Sprintf("%s: %s names no file", row.name, spec))
			}
		}
		if row.want != nil && !maps.Equal(counts[i], row.want) {
			msgs = append(msgs, fmt.Sprintf("%s: matching lines by file %v, want %v", row.name, counts[i], row.want))
		}
	}
	return msgs
}

// pathspec reports whether a path or exclude entry names path.
func pathspec(spec, path string) bool {
	if suffix, ok := strings.CutPrefix(spec, "*"); ok {
		return strings.HasSuffix(path, suffix)
	}
	return path == spec || strings.HasPrefix(path, spec+"/")
}
