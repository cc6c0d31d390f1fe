package serve

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Code identifies a serving-plane failure class. Codes travel on the wire
// (protocol replies carry the Code next to a human-readable detail string)
// so clients can branch on failures without parsing strings. CodeOK is the
// zero value, so v1 peers that never set a code report success.
type Code int

const (
	// CodeOK reports success.
	CodeOK Code = iota
	// CodeBadRequest rejects malformed or incomplete requests.
	CodeBadRequest
	// CodeParamMismatch rejects a switching key whose shape does not fit
	// the session profile's ring at the level the server switches it at.
	CodeParamMismatch
	// CodeUnknownSession rejects operations on a session the request's
	// connection did not register, or one that is gone (evicted, or its
	// connection closed).
	CodeUnknownSession
	// CodeDuplicateSession rejects re-registration of a live session ID.
	CodeDuplicateSession
	// CodeOversized rejects blocks exceeding the slot capacity.
	CodeOversized
	// CodeOverloaded sheds load when the scheduler queue is full.
	CodeOverloaded
	// CodeRekeyRequired rejects blocks once the session's key byte budget
	// is exhausted (or the block was masked under a stale key epoch).
	CodeRekeyRequired
	// CodeInternal reports a server-side evaluation failure.
	CodeInternal
	// CodeConnClosed reports a torn-down transport: in-flight requests
	// fail with it when the connection dies before their reply arrives.
	// It is surfaced locally by protocol clients rather than carried on
	// the wire (the wire is gone).
	CodeConnClosed
	// CodeAdmissionDenied sheds work the control plane refuses to admit:
	// the projected QKD key consumption or queue occupancy exceeds the
	// current resource plan. Unlike CodeOverloaded (a full queue right
	// now) or CodeRekeyRequired (retry after rotating), admission denial
	// is a policy decision — clients should back off or route elsewhere
	// rather than retry immediately.
	CodeAdmissionDenied
	// CodeProfileDenied rejects a session whose requested security
	// profile the server does not serve (unknown ID) or the active plan
	// refuses. Distinct from CodeParamMismatch: the parameters may be
	// perfectly valid, the policy just does not allow them here.
	CodeProfileDenied
	// Wire value 12 is retired (it rejected peers that had not negotiated
	// the residue-tower ciphertext layout, which the one wire version now
	// implies). The slot stays blank because codes are wire values and
	// must not be renumbered; it reads as an unknown code.
	_
	// CodeDeadline reports a request that exceeded its deadline (a
	// per-request timeout or a canceled context). Surfaced locally by
	// protocol clients — the reply may still be in flight, but the caller
	// has stopped waiting for it.
	CodeDeadline
	// CodeKeyExhausted reports that the QKD key pool backing the session
	// cannot fund the operation right now. Unlike CodeAdmissionDenied (a
	// policy decision) this is a transient resource condition: the pool
	// refills at the provisioning rate, so the error carries a
	// retry-after hint (see KeyExhaustedError) and clients should retry
	// after the hinted delay rather than tearing the session down.
	CodeKeyExhausted
	// Wire value 15 is retired (it turned new work away from a server
	// draining for restart, which no server does). Like value 12, the slot
	// stays blank so later codes keep their wire values.
	_
	// Wire value 16 is retired (it refused a session resume; a session now
	// ends with its connection, so there is nothing to resume). Blank, as
	// 12 and 15 are.
	_
	// CodeMatVecUnavailable rejects an encrypted matrix–vector request the
	// server cannot serve: it has no matrix configured, or the session has
	// not uploaded the rotation keys the kernel needs. The detail string
	// says which; clients should upload rather than retry blindly.
	CodeMatVecUnavailable
)

// Sentinel errors, one per failure code. Server components return these
// directly; clients reconstruct them from wire codes, so
// errors.Is(err, serve.ErrOverloaded) works on both sides of the
// connection.
var (
	ErrBadRequest        = errors.New("serve: bad request")
	ErrParamMismatch     = errors.New("serve: parameter mismatch")
	ErrUnknownSession    = errors.New("serve: unknown session")
	ErrDuplicateSession  = errors.New("serve: duplicate session")
	ErrOversized         = errors.New("serve: block exceeds slot capacity")
	ErrOverloaded        = errors.New("serve: overloaded")
	ErrRekeyRequired     = errors.New("serve: rekey required")
	ErrInternal          = errors.New("serve: internal error")
	ErrConnClosed        = errors.New("serve: connection closed")
	ErrAdmissionDenied   = errors.New("serve: admission denied")
	ErrProfileDenied     = errors.New("serve: security profile denied")
	ErrDeadline          = errors.New("serve: deadline exceeded")
	ErrKeyExhausted      = errors.New("serve: qkd key exhausted")
	ErrMatVecUnavailable = errors.New("serve: encrypted matvec unavailable")
)

// codes is the one table of the code space, indexed by Code: the name logs
// and metrics use and the sentinel the code travels as. A slot with no
// name (a retired wire value) is not a code.
var codes = [...]struct {
	name string
	err  error
}{
	CodeOK:                {"ok", nil},
	CodeBadRequest:        {"bad-request", ErrBadRequest},
	CodeParamMismatch:     {"param-mismatch", ErrParamMismatch},
	CodeUnknownSession:    {"unknown-session", ErrUnknownSession},
	CodeDuplicateSession:  {"duplicate-session", ErrDuplicateSession},
	CodeOversized:         {"oversized", ErrOversized},
	CodeOverloaded:        {"overloaded", ErrOverloaded},
	CodeRekeyRequired:     {"rekey-required", ErrRekeyRequired},
	CodeInternal:          {"internal", ErrInternal},
	CodeConnClosed:        {"conn-closed", ErrConnClosed},
	CodeAdmissionDenied:   {"admission-denied", ErrAdmissionDenied},
	CodeProfileDenied:     {"profile-denied", ErrProfileDenied},
	CodeDeadline:          {"deadline", ErrDeadline},
	CodeKeyExhausted:      {"key-exhausted", ErrKeyExhausted},
	CodeMatVecUnavailable: {"matvec-unavailable", ErrMatVecUnavailable},
}

// NumCodes bounds the code space: every Code is in [0, NumCodes).
const NumCodes = len(codes)

// Known reports whether c names a row of the table.
func (c Code) Known() bool { return c >= 0 && int(c) < NumCodes && codes[c].name != "" }

// Err returns the sentinel error for the code, or nil for CodeOK.
// Unrecognized codes (a newer peer, a retired slot) map to ErrInternal.
func (c Code) Err() error {
	if !c.Known() {
		return ErrInternal
	}
	return codes[c].err
}

// CodeOf maps an error back to its wire code: nil reports CodeOK and
// errors outside the sentinel set report CodeInternal. The table is walked
// in code order, so an error wrapping two sentinels reports the lower code.
func CodeOf(err error) Code {
	if err == nil {
		return CodeOK
	}
	for c, row := range codes {
		if row.err != nil && errors.Is(err, row.err) {
			return Code(c)
		}
	}
	return CodeInternal
}

// String names the code for logs and metrics.
func (c Code) String() string {
	if !c.Known() {
		return "unknown"
	}
	return codes[c].name
}

// KeyExhaustedError is the carrier for CodeKeyExhausted: it wraps
// ErrKeyExhausted (errors.Is works) and adds the retry-after hint derived
// from the key pool's provisioning rate — how long until the pool has
// refilled enough to fund the rejected operation. The hint survives the
// wire round trip: Error() renders it in a parseable "retry_after_ms=N"
// form and ParseKeyExhausted reconstructs the typed error from a reply's
// detail string.
type KeyExhaustedError struct {
	// RetryAfter estimates when the pool will have refilled enough to
	// retry (0 = unknown rate, retry at the caller's discretion).
	RetryAfter time.Duration
	// Detail is the human-readable context (pool deficit, session).
	Detail string
}

// NewKeyExhausted builds a typed key-exhaustion error with a retry hint.
func NewKeyExhausted(retryAfter time.Duration, detail string) *KeyExhaustedError {
	return &KeyExhaustedError{RetryAfter: retryAfter, Detail: detail}
}

func (e *KeyExhaustedError) Error() string {
	msg := fmt.Sprintf("%s: retry_after_ms=%d", ErrKeyExhausted.Error(), e.RetryAfter.Milliseconds())
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return msg
}

// Unwrap makes errors.Is(err, ErrKeyExhausted) hold.
func (e *KeyExhaustedError) Unwrap() error { return ErrKeyExhausted }

// ParseKeyExhausted rebuilds a KeyExhaustedError from a wire detail
// string as produced by Error(). Absent or malformed hints parse as a
// zero RetryAfter.
func ParseKeyExhausted(detail string) *KeyExhaustedError {
	e := &KeyExhaustedError{Detail: detail}
	const marker = "retry_after_ms="
	i := strings.Index(detail, marker)
	if i < 0 {
		return e
	}
	rest := detail[i+len(marker):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	if ms, err := strconv.ParseInt(rest[:j], 10, 64); err == nil {
		e.RetryAfter = time.Duration(ms) * time.Millisecond
		if j < len(rest) && strings.HasPrefix(rest[j:], ": ") {
			e.Detail = rest[j+2:]
		} else {
			e.Detail = ""
		}
	}
	return e
}
