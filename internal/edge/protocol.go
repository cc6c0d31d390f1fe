package edge

// This file holds the protocol's message types; the hand-rolled codecs
// in wire.go marshal them into frames. Requests have one type each; the
// replies have two: ComputeReply answers every per-block op (the op table
// in server.go) and SessionReply every other request. Only the opening's
// two requests, the profile query and Setup, name a session: every later
// frame on the connection is about the session its Setup registered. See
// doc.go for the frame layout and the two phases.

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
// use the explicit Rekey message instead. A refused Setup installs nothing
// and the connection stays in its opening; an accepted one ends the
// opening, and from then on the connection is the session: it lives as
// long as the connection, and no frame can name it from another.
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
// should run: the connection's first frame. The client sends it before
// generating keys or drawing QKD key, so a plan-steered or downgraded
// profile costs no wasted key generation, and a refused one spends no key.
// Requested may be empty — "let the plan steer" — or a concrete profile
// ID the client wants. An ID already live on the server is refused with
// serve.CodeDuplicateSession.
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

// ComputeRequest uploads one symmetrically encrypted block of the
// connection's session. Every per-block op (see the op table in server.go)
// shares it: the request frame's type selects what the server evaluates
// on the block.
type ComputeRequest struct {
	Block  uint32
	Masked []float64
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
// (drawn from a new qkd.KeyCenter withdrawal) for the connection's
// session, bumping its key epoch and resetting the byte budget.
type RekeyRequest struct {
	EncKey []*ckks.Ciphertext
	Nonce  []byte
}

// RotKeysRequest uploads one of the client's Galois rotation keys to the
// connection's session. Each key must pass ckks.Context.CheckSwitchingKey
// for the session's profile and be for a rotation of the server's BSGS
// plan (ckks.BSGSRotations of the advertised MatVecDim) not uploaded yet;
// a mismatched, unreduced, repeated or unplanned key is refused typed
// before it is kept. The connection collects accepted keys and installs
// them on the session as one set once they cover the plan. Installed keys
// live on the session for as long as it lives, through every rekey.
type RotKeysRequest struct {
	Key *ckks.GaloisKey
}

// replyEnvelope is one reply the client's read loop hands to the request
// it answers: Compute carries the reply of every per-block op, Session
// that of every other request.
type replyEnvelope struct {
	ID      uint64
	Compute *ComputeReply
	Session *SessionReply
}
