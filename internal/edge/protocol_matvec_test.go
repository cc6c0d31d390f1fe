package edge

import (
	"errors"
	"math"
	"slices"
	"testing"

	"quhe/internal/serve"
)

// testMatrix is a small well-conditioned 4×4 model matrix (dim divides
// every power-of-two slot count) plus a bias for the matvec tests.
var testMatrix = [][]float64{
	{0.5, -0.25, 0.1, 0},
	{0.2, 0.4, -0.1, 0.3},
	{-0.3, 0.1, 0.6, -0.2},
	{0, 0.25, -0.4, 0.5},
}

var testMatrixBias = []float64{0.1, -0.05, 0, 0.2}

func plainMatVec(m [][]float64, bias, v []float64) []float64 {
	out := make([]float64, len(m))
	for i, row := range m {
		s := 0.0
		for j, w := range row {
			if j < len(v) {
				s += w * v[j]
			}
		}
		if i < len(bias) {
			s += bias[i]
		}
		out[i] = s
	}
	return out
}

// TestMatVecEndToEnd drives the complete encrypted matrix–vector path
// over real TCP: the dimension the Setup reply advertises, rotation-key
// upload, then a masked vector transciphered and multiplied by the
// server's packed matrix with the hoisted BSGS kernel — decrypted
// client-side and checked against the plaintext product.
func TestMatVecEndToEnd(t *testing.T) {
	srv := startServer(t, Model{Matrix: testMatrix, MatrixBias: testMatrixBias})
	client, err := DialWith(srv.Addr(), "mv-client", []byte("qkd-material"), 42, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if got := client.MatVecDim(); got != 4 {
		t.Fatalf("MatVecDim = %d, want 4", got)
	}
	if err := client.EnableMatVec(); err != nil {
		t.Fatalf("EnableMatVec: %v", err)
	}
	// Idempotent: the second call must not re-upload or fail.
	if err := client.EnableMatVec(); err != nil {
		t.Fatalf("EnableMatVec (repeat): %v", err)
	}

	v := []float64{0.8, -0.4, 0.6, 0.2}
	got, err := client.MatVec(0, v)
	if err != nil {
		t.Fatal(err)
	}
	want := plainMatVec(testMatrix, testMatrixBias, v)
	if len(got) != 4 {
		t.Fatalf("result has %d values, want 4", len(got))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.05 {
			t.Errorf("slot %d = %v, want %v", i, got[i], want[i])
		}
	}
	// The reply prices the block with the key switches the kernel ran:
	// at n = 4 (n1 = n2 = 2) one baby rotation and one giant step.
	const rots = 2
	if wantCmp := wantCmpDelay(t, client, 1, rots); client.LastCmpDelay != wantCmp {
		t.Errorf("matvec cmp delay %v, want the registry's %v (%d rotations)", client.LastCmpDelay, wantCmp, rots)
	}

	// A short vector is zero-padded to the matrix dimension.
	short := []float64{1, -1}
	got, err = client.MatVec(1, short)
	if err != nil {
		t.Fatal(err)
	}
	want = plainMatVec(testMatrix, testMatrixBias, short)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.05 {
			t.Errorf("short vector slot %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestMatVecPricedBySwitches serves a dense 16×16 model (n1 = n2 = 4),
// where what a session uploads and what a block runs differ: the client
// uploads the 4 keys of rotations 1…4, and the reply prices the block by
// the 6 key switches the kernel ran, 3 baby rotations and 3 giant steps.
func TestMatVecPricedBySwitches(t *testing.T) {
	const dim = 16
	m := make([][]float64, dim)
	for i := range m {
		m[i] = make([]float64, dim)
		for j := range m[i] {
			m[i][j] = 0.1 * math.Sin(float64(i*dim+j+1))
		}
	}
	srv := startServer(t, Model{Matrix: m})
	client, err := DialWith(srv.Addr(), "priced", []byte("qkd-material"), 43, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.EnableMatVec(); err != nil {
		t.Fatalf("EnableMatVec: %v", err)
	}
	sess, _ := srv.store.Peek("priced")
	var rots []int
	for _, gk := range sess.RotKeys().Keys {
		rots = append(rots, gk.Rot)
	}
	if slices.Sort(rots); !slices.Equal(rots, []int{1, 2, 3, 4}) {
		t.Errorf("session installed rotation keys %v, want [1 2 3 4]", rots)
	}
	v := make([]float64, dim)
	for i := range v {
		v[i] = math.Cos(float64(i))
	}
	got, err := client.MatVec(0, v)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range plainMatVec(m, nil, v) {
		if math.Abs(got[i]-want) > 0.05 {
			t.Errorf("slot %d = %v, want %v", i, got[i], want)
		}
	}
	if want := wantCmpDelay(t, client, 1, 6); client.LastCmpDelay != want {
		t.Errorf("matvec cmp delay %v, want the registry's %v (6 key switches)", client.LastCmpDelay, want)
	}
}

// TestMatVecAndComputeShareSession runs affine Compute and MatVec rounds
// interleaved on one session: the paths share the block space and key
// epochs but must not disturb each other.
func TestMatVecAndComputeShareSession(t *testing.T) {
	model := Model{
		Weights: []float64{1, 1, 1, 1},
		Matrix:  testMatrix, MatrixBias: testMatrixBias,
	}
	srv := startServer(t, model)
	client, err := DialWith(srv.Addr(), "mixed", []byte("k"), 7, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.EnableMatVec(); err != nil {
		t.Fatal(err)
	}

	v := []float64{0.3, 0.1, -0.2, 0.5}
	affine, err := client.Compute(0, v)
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	for i, want := range v {
		if math.Abs(affine[i]-want) > 0.05 {
			t.Errorf("affine slot %d = %v, want %v", i, affine[i], want)
		}
	}
	mv, err := client.MatVec(1, v)
	if err != nil {
		t.Fatalf("matvec: %v", err)
	}
	want := plainMatVec(testMatrix, testMatrixBias, v)
	for i := range want {
		if math.Abs(mv[i]-want[i]) > 0.05 {
			t.Errorf("matvec slot %d = %v, want %v", i, mv[i], want[i])
		}
	}
	if blocks(srv, "mixed") != 2 {
		t.Errorf("server processed %d blocks, want 2", blocks(srv, "mixed"))
	}
}

// TestMatVecWithoutRotationKeys asserts the typed rejection when the
// session never uploaded its Galois keys: the server must fail the
// request at admission, not crash mid-kernel.
func TestMatVecWithoutRotationKeys(t *testing.T) {
	srv := startServer(t, Model{Matrix: testMatrix})
	client, err := DialWith(srv.Addr(), "no-keys", []byte("k"), 3, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.MatVec(0, []float64{1, 0, 0, 0}); !errors.Is(err, serve.ErrMatVecUnavailable) {
		t.Errorf("matvec without rotation keys err = %v, want ErrMatVecUnavailable", err)
	}
}

// TestMatVecNotConfigured asserts the capability is absent end to end
// when the server holds no matrix: the Setup reply reports dimension 0
// and the client fails locally typed.
func TestMatVecNotConfigured(t *testing.T) {
	srv := startServer(t, Model{Weights: []float64{1}})
	client, err := DialWith(srv.Addr(), "plain", []byte("k"), 5, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if got := client.MatVecDim(); got != 0 {
		t.Errorf("MatVecDim = %d, want 0", got)
	}
	if err := client.EnableMatVec(); !errors.Is(err, serve.ErrMatVecUnavailable) {
		t.Errorf("EnableMatVec err = %v, want ErrMatVecUnavailable", err)
	}
	if _, err := client.MatVec(0, []float64{1}); !errors.Is(err, serve.ErrMatVecUnavailable) {
		t.Errorf("MatVec err = %v, want ErrMatVecUnavailable", err)
	}
}

// TestMatVecSurvivesRekey pins that rotation keys are key-epoch
// independent: they are public evaluation material bound to the HE
// secret key, not the symmetric transciphering key, so a rekey must not
// invalidate them.
func TestMatVecSurvivesRekey(t *testing.T) {
	srv := startServer(t, Model{Matrix: testMatrix, MatrixBias: testMatrixBias})
	client, err := DialQKDWith(srv.Addr(), "rekeyed", provisionedKeyCenter(t, "rekeyed"), 13, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.EnableMatVec(); err != nil {
		t.Fatal(err)
	}
	if err := client.Rekey(); err != nil {
		t.Fatalf("rekey: %v", err)
	}
	v := []float64{-0.5, 0.25, 0.75, -0.1}
	got, err := client.MatVec(0, v)
	if err != nil {
		t.Fatalf("matvec after rekey: %v", err)
	}
	want := plainMatVec(testMatrix, testMatrixBias, v)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.05 {
			t.Errorf("slot %d = %v, want %v", i, got[i], want[i])
		}
	}
}
