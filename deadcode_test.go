package quhe_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// productionAllowlist names the package-level functions and methods that
// stay in production files although no production code calls them, each
// with the reason it stays. Keys read pkg.Name or pkg.Recv.Name. An entry
// is a root of the scan, so what it calls needs no entry of its own.
var productionAllowlist = map[string]string{
	// The allocating CKKS operation API. Served paths run the Into forms;
	// the op tests exercise these, and the conformance suite is to cover
	// every op through them.
	"ckks.Encoder.Decode":            "allocating CKKS op API, exercised by the op tests",
	"ckks.Encoder.EncodeReal":        "allocating CKKS op API, exercised by the op tests",
	"ckks.Evaluator.AddPlain":        "allocating CKKS op API, exercised by the op tests",
	"ckks.Evaluator.SubPlain":        "allocating CKKS op API, exercised by the op tests",
	"ckks.Evaluator.MulPlain":        "allocating CKKS op API, exercised by the op tests",
	"ckks.Evaluator.MulRelin":        "allocating CKKS op API, exercised by the op tests",
	"ckks.Evaluator.Rescale":         "allocating CKKS op API, exercised by the op tests",
	"ckks.Evaluator.DropLevel":       "allocating CKKS op API, exercised by the op tests",
	"ckks.Evaluator.DropLevelInto":   "CKKS op API, exercised by the op tests",
	"ckks.Evaluator.Rotate":          "allocating CKKS op API, exercised by the op tests",
	"ckks.Evaluator.RotateInto":      "CKKS op API, the unhoisted rotation the hoisted kernels are tested against",
	"ckks.Evaluator.Trivial":         "allocating CKKS op API, exercised by the op tests",
	"ckks.MatVecPlan.Dim":            "CKKS op API: the dimension a plan was built for",
	"experiments.ControlLoop":        "experiment driver the experiments tests run",
	"experiments.ProfileMix":         "experiment driver the experiments tests run",
	"profile.Profile.Calibrate":      "experiment driver: servers never calibrate, experiments hold the model against it",
	"edge.DialWith":                  "edge client API whose fate the edge simplification decides",
	"edge.DialQKD":                   "edge client API whose fate the edge simplification decides",
	"edge.Client.RekeyWith":          "edge client API whose fate the edge simplification decides",
	"edge.Server.Drain":              "edge operator API whose fate the edge simplification decides",
	"edge.Server.Draining":           "edge operator API whose fate the edge simplification decides",
	"edge.Server.ObsRegistry":        "edge operator API whose fate the edge simplification decides",
	"edge.Server.SessionStats":       "edge operator API whose fate the edge simplification decides",
	"obs.BlockTrace.SpanSum":         "obs operator API whose fate the edge simplification decides",
	"obs.Tracer.WriteChrome":         "obs operator API whose fate the edge simplification decides",
	"faultnet.Injector.CloseAll":     "the fault the edge chaos tests inject: every wrapped connection cut at once",
	"ring.Modulus.LazySumTerms":      "the lazy-sum bound the ring and ckks tests size their worst cases by",
	"mathutil.ApproxEqual":           "comparison helper the mathutil and optimize tests share",
	"mathutil.VecApproxEqual":        "comparison helper the mathutil and optimize tests share",
	"optimize.bnbQueue.Less":         "heap.Interface: container/heap calls it",
	"qnet.eventQueue.Less":           "heap.Interface: container/heap calls it",
	"serve.KeyExhaustedError.Unwrap": "errors.Is calls it, so a KeyExhaustedError is ErrKeyExhausted",
}

// TestProductionCodeHasCallers fails on any non-test function or method
// that production code does not reach and productionAllowlist does not
// name, and on any allowlist entry that production reaches again or that
// is gone.
func TestProductionCodeHasCallers(t *testing.T) {
	dead, err := unreachableFuncs(".", nil)
	if err != nil {
		t.Fatal(err)
	}
	for name := range productionAllowlist {
		if !slices.Contains(dead, name) {
			t.Errorf("allowlist entry %s is stale: production reaches it, or it is gone", name)
		}
	}
	if dead, err = unreachableFuncs(".", productionAllowlist); err != nil {
		t.Fatal(err)
	}
	for _, name := range dead {
		t.Errorf("%s has no production caller: delete it, move it into the test that uses it, or allowlist it with a reason", name)
	}
}

// TestDeadcodeFixture runs the scan on a fixture whose main calls one
// function; of the other two, one is never called and one is called only
// by the never-called one. Both must be flagged.
func TestDeadcodeFixture(t *testing.T) {
	dead, err := unreachableFuncs(filepath.Join("testdata", "deadcode"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"deadcode.calledOnlyByDead", "deadcode.neverCalled"}
	if !slices.Equal(dead, want) {
		t.Fatalf("unreachable = %v, want %v", dead, want)
	}
}

// unreachableFuncs parses every non-test .go file under root, skipping
// testdata and dot directories, and returns the sorted keys of the
// package-level functions and methods that nothing reachable references by
// name. The roots are main, init, every non-function declaration (variable
// initializers, interface method names) and the functions extra names.
// A reached function reaches every function whose name it mentions, other
// than itself, and the set grows to a fixed point, so a reference from an
// unreachable function counts for nothing. Matching by name can miss a
// function whose name collides with a reachable one, but it never flags a
// function that is called.
func unreachableFuncs(root string, extra map[string]string) ([]string, error) {
	type fn struct {
		key  string
		decl *ast.FuncDecl
	}
	var funcs []fn
	refs := map[string]bool{} // names mentioned by the reached code
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(path))
		if pkg == "." {
			pkg = f.Name.Name
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init") {
				mentions(decl, refs)
				continue
			}
			key := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				key = pkg + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			funcs = append(funcs, fn{key, fd})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	reached := make([]bool, len(funcs))
	for changed := true; changed; {
		changed = false
		for i, f := range funcs {
			if reached[i] || !refs[f.decl.Name.Name] && extra[f.key] == "" {
				continue
			}
			reached[i], changed = true, true
			if f.decl.Recv != nil {
				mentions(f.decl.Recv, refs)
			}
			mentions(f.decl.Type, refs)
			if f.decl.Body != nil {
				mentions(f.decl.Body, refs)
			}
		}
	}
	var dead []string
	for i, f := range funcs {
		if !reached[i] {
			dead = append(dead, f.key)
		}
	}
	slices.Sort(dead)
	return dead, nil
}

// mentions adds every identifier under n to names.
func mentions(n ast.Node, names map[string]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			names[id.Name] = true
		}
		return true
	})
}

// recvName returns a receiver's type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
