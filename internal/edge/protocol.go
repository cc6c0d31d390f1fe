package edge

// This file holds the protocol's message types; the hand-rolled codecs
// in wire.go marshal them into frames. Requests have one type each; the
// replies have two: ComputeReply answers every per-block op (the op table
// in server.go) and SessionReply every session-lifecycle request (the
// session table). See doc.go for the frame layout.

import (
	"quhe/internal/he/ckks"
	"quhe/internal/obs"
	"quhe/internal/serve"
)

// KeyLen is the transciphering key length used by the runtime.
const KeyLen = 8

// SetupRequest registers a client session: its relinearization key and
// the HE-encrypted transciphering key. The client's public key stays with
// the client, which alone encrypts under it. Registering an ID that is
// already live fails with serve.CodeDuplicateSession — key rotation must
// use the explicit Rekey message instead. The session lives as long as the
// connection that sent its Setup, and only that connection may name it:
// a request from any other is refused with serve.CodeUnknownSession.
type SetupRequest struct {
	SessionID string
	// LogN/Depth guard against parameter mismatches between endpoints.
	LogN, Depth int
	RLK         *ckks.RelinKey
	EncKey      []*ckks.Ciphertext
	Nonce       []byte
	// Profile is the security profile the session's key material was
	// built for — what the pre-Setup profile query granted. Empty selects
	// the server's default profile; a non-empty ID must be known to the
	// server's registry and match LogN/Depth.
	Profile string
}

// ProfileRequest asks the server which security profile a new session
// should run. The client sends it before generating keys, so a
// plan-steered or downgraded profile costs no wasted key generation.
// Requested may be empty — "let the plan steer" — or a concrete profile
// ID the client wants.
type ProfileRequest struct {
	SessionID string
	Requested string
}

// SessionReply answers every session-lifecycle request — the profile
// query, Setup, Rekey and each RotKeys upload — in one layout.
// Code and Err type a refusal; a request that was refused installed
// nothing. On success the fields a request has an answer for are set and
// the rest are zero.
type SessionReply struct {
	Code serve.Code
	Err  string
	// Profile is the granted profile of a profile query — which may be a
	// downgrade of the request when the active plan refuses the requested
	// level — and the profile a Setup registered the session on.
	Profile string
	// Epoch is the session's key epoch after a Rekey (the new one).
	Epoch uint64
	// MatVecDim, on a Setup reply, is the dimension of the server's packed
	// model matrix, telling the client which rotation keys the BSGS kernel
	// needs (ckks.BSGSRotations(MatVecDim)). Zero when the server holds no
	// matrix: encrypted matvec is unavailable there.
	MatVecDim int
}

// ComputeRequest uploads one symmetrically encrypted block. Every
// per-block op (see the op table in server.go) shares it: the request
// frame's type selects what the server evaluates on the block.
type ComputeRequest struct {
	SessionID string
	Block     uint32
	Masked    []float64
	// Epoch is the key epoch the block was masked under. Zero skips the
	// check; a stale nonzero epoch is rejected with
	// serve.CodeRekeyRequired rather than transciphered into garbage.
	Epoch uint64
	// Trace is the distributed-trace context the server re-parents its
	// stage spans under: a fixed 16-byte field, zero when the block is
	// unsampled.
	Trace obs.TraceContext
}

// ComputeReply returns the encrypted inference result plus the modeled
// costs of this request (the paper's delay decomposition).
type ComputeReply struct {
	Result *ckks.Ciphertext
	Err    string
	// Code types the failure.
	Code serve.Code
	// RekeyNeeded advises the client that the session's key byte budget
	// is nearly exhausted and a Rekey should be scheduled.
	RekeyNeeded bool
	// ModeledTxDelay and ModeledCmpDelay report the transmission and
	// server-computation delays (seconds) of this block: its bits over the
	// modeled uplink rate, and the session profile's registry price of
	// the block with the rotations it ran (profile.BlockCycles) at
	// profile.RefHz.
	ModeledTxDelay  float64
	ModeledCmpDelay float64
}

// RekeyRequest installs fresh HE-encrypted transciphering key material
// (drawn from a new qkd.KeyCenter withdrawal) for a live session,
// bumping its key epoch and resetting the byte budget.
type RekeyRequest struct {
	SessionID string
	EncKey    []*ckks.Ciphertext
	Nonce     []byte
}

// RotKeysRequest uploads one of the client's Galois rotation keys to its
// server-side session. Each key must pass ckks.Context.CheckSwitchingKey
// for the session's profile and be for a rotation of the server's BSGS
// plan (ckks.BSGSRotations of the advertised MatVecDim) not uploaded yet;
// a mismatched, unreduced, repeated or unplanned key is refused typed
// before it is kept. The connection collects accepted keys and installs
// them on the session as one set once they cover the plan. Installed keys
// live on the session for as long as it lives, through every rekey.
type RotKeysRequest struct {
	SessionID string
	Key       *ckks.GaloisKey
}

// envelope is the client's tagged union of requests. A per-block op
// travels as Compute with Op naming its request frame.
type envelope struct {
	ID      uint64
	Setup   *SetupRequest
	Compute *ComputeRequest
	Op      byte
	Rekey   *RekeyRequest
	RotKeys *RotKeysRequest
}

// replyEnvelope mirrors envelope for responses: Compute carries the reply
// of every per-block op, Session that of every other request.
type replyEnvelope struct {
	ID      uint64
	Compute *ComputeReply
	Session *SessionReply
}
