package serve

import (
	"sync"
	"sync/atomic"

	"quhe/internal/he/ckks"
)

// RekeyWithdrawBytes is the QKD key material one transciphering key
// costs: clients withdraw it from the key centre at setup and on every
// rekey (edge.RekeyWithdrawBytes), and the control plane counts key stock
// in units of it.
const RekeyWithdrawBytes = 32

// Session is one client's serving state: the HE evaluation material it
// registered, the current transciphering key (HE-encrypted, with its
// nonce and epoch), and usage counters. Key material is swapped atomically
// by Rekey while computes running on old snapshots finish consistently —
// the epoch lets the protocol layer reject blocks masked under a stale
// key instead of transciphering them into garbage. The edge server keeps a
// session exactly as long as the connection that registered it: only that
// connection may name it, and its teardown removes it (Store.Remove).
type Session struct {
	// ID names the session; immutable.
	ID string
	// Profile is the security profile the session was registered on
	// (empty = the server's default profile); immutable. Every compute
	// for the session runs on the profile's evaluator pool against its
	// CKKS context, and the control plane derives the session's rekey
	// budget from the profile's λ.
	Profile string
	// RLK is the client's relinearization key; immutable.
	RLK *ckks.RelinKey

	mu sync.RWMutex
	// encKey is held in exactly the form the registrar handed over and is
	// never converted here: the edge server installs the evaluation form
	// (transcipher.Cipher.InstallKey) before NewSession/Rekey, so key,
	// nonce and epoch still swap together under mu.
	encKey []*ckks.Ciphertext
	nonce  []byte
	epoch  uint64
	// rotKeys holds the client's Galois rotation keys for the packed
	// matrix–vector kernel. The keys arrive one per frame and collect on
	// the uploading connection; the set lands here whole, once it covers
	// the plan, and stays there through every rekey. Nil until then: the
	// session serves no matvec on a partial set.
	rotKeys *ckks.GaloisKeySet

	blocks          atomic.Int64
	bytes           atomic.Int64
	bytesSinceRekey atomic.Int64
	rekeys          atomic.Int64
}

// Stats is a point-in-time snapshot of a session's usage counters.
type Stats struct {
	// Blocks and Bytes count all work since registration.
	Blocks int64
	Bytes  int64
	// BytesSinceRekey counts work under the current key (the rekey byte
	// budget compares against this).
	BytesSinceRekey int64
	// Rekeys counts completed key rotations.
	Rekeys int64
	// Epoch is the current key epoch (1 on registration, +1 per rekey).
	Epoch uint64
}

// NewSession builds a session at epoch 1 holding the given key material,
// registered on the given security profile ("" = server default). The
// public-key argument is ignored: a server never encrypts under a
// client's key, so a session does not hold one. It stays in the signature
// for the callers that still pass it.
func NewSession(id, profile string, _ *ckks.PublicKey, rlk *ckks.RelinKey, encKey []*ckks.Ciphertext, nonce []byte) *Session {
	return &Session{
		ID: id, Profile: profile, RLK: rlk,
		encKey: encKey,
		nonce:  append([]byte(nil), nonce...),
		epoch:  1,
	}
}

// Keys returns a consistent snapshot of the current transciphering key
// material. The returned slices must not be mutated.
func (s *Session) Keys() (encKey []*ckks.Ciphertext, nonce []byte, epoch uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.encKey, s.nonce, s.epoch
}

// Rekey installs fresh key material, bumps the epoch and resets the
// per-key byte counter. Computes that already snapshotted the old keys
// finish under them; new snapshots see only the new epoch. Returns the
// new epoch.
func (s *Session) Rekey(encKey []*ckks.Ciphertext, nonce []byte) uint64 {
	s.mu.Lock()
	s.encKey = encKey
	s.nonce = append([]byte(nil), nonce...)
	s.epoch++
	epoch := s.epoch
	s.mu.Unlock()
	s.bytesSinceRekey.Store(0)
	s.rekeys.Add(1)
	return epoch
}

// SetRotKeys installs the session's Galois rotation-key set for the
// encrypted matrix–vector kernel, replacing any previous set. Rotation
// keys are public evaluation material derived from the secret key; they
// survive rekeys, which rotate only the transciphering key.
func (s *Session) SetRotKeys(gks *ckks.GaloisKeySet) {
	s.mu.Lock()
	s.rotKeys = gks
	s.mu.Unlock()
}

// RotKeys returns the installed rotation-key set, or nil when the client
// never uploaded one. The returned set must not be mutated.
func (s *Session) RotKeys() *ckks.GaloisKeySet {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rotKeys
}

// RecordBlock accounts one processed block of the given byte size and
// returns the bytes served under the current key.
func (s *Session) RecordBlock(bytes int64) int64 {
	s.blocks.Add(1)
	s.bytes.Add(bytes)
	return s.bytesSinceRekey.Add(bytes)
}

// BytesSinceRekey returns the bytes served under the current key.
func (s *Session) BytesSinceRekey() int64 { return s.bytesSinceRekey.Load() }

// Epoch returns the current key epoch.
func (s *Session) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Stats snapshots the usage counters.
func (s *Session) Stats() Stats {
	return Stats{
		Blocks:          s.blocks.Load(),
		Bytes:           s.bytes.Load(),
		BytesSinceRekey: s.bytesSinceRekey.Load(),
		Rekeys:          s.rekeys.Load(),
		Epoch:           s.Epoch(),
	}
}
