package edge

// This file holds the protocol's message types; the hand-rolled codecs
// in wire.go marshal them into frames. Requests have one type each; the
// replies have two: ComputeReply answers every per-block op (the op table
// in server.go) and SessionReply every other request. Only the profile
// query names a session: Setup registers what it granted, and every later
// frame on the connection is about that session. See doc.go for the frame
// layout and the two phases.

import (
	"quhe/internal/he/ckks"
	"quhe/internal/obs"
	"quhe/internal/serve"
)

// KeyLen is the transciphering key length used by the runtime.
const KeyLen = 8

// SetupRequest carries a session's keys: its relinearization key, the
// HE-encrypted transciphering key and its blocks' nonce. It names no
// session, profile or parameters: the server registers what the
// connection's profile query granted, and closes a connection that sends
// Setup with no grant. A refused Setup installs nothing and the opening
// goes on; an accepted one ends it, and from then on the connection is the
// session: it lives as long as the connection, and no frame can name it
// from another.
type SetupRequest struct {
	RLK    *ckks.RelinKey
	EncKey []*ckks.Ciphertext
	Nonce  []byte
}

// ProfileRequest asks the server which security profile a new session
// should run: the connection's first frame, and the only one naming the
// session. The client sends it before generating keys or drawing QKD key,
// so a plan-steered or downgraded profile costs no wasted key generation,
// and a refused one spends no key. Requested may be empty — "let the plan
// steer" — or a concrete profile ID the client wants. An empty SessionID
// is refused with serve.CodeBadRequest, a live one with
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
	// Profile answers a profile query only: the granted profile, which may
	// be a downgrade of the request when the active plan refuses the
	// requested level.
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
	// Epoch is the key epoch the block was masked under, 1 from Setup on.
	// Any other epoch than the session's — zero included — is rejected
	// with serve.CodeRekeyRequired rather than transciphered into garbage.
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
