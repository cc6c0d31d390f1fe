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
	{name: "one edge operator and client surface", pattern: `\bServer\.Drain\b|\.Drain\(|\bDraining\b|\bObsRegistry\b|\bRekeyWith\b|\bDialQKD\(|\bWriteChrome\b|\bSpanSum\b|\bCodeDraining\b|\bErrDraining\b|\bedge\.Dial\(`,
		paths: goAndMarkdown, exclude: notesOrBench, why: "the drain, the zero-config dials, the explicit-material rekey, the registry accessor and the obs helpers only tests called stay retired"},
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
