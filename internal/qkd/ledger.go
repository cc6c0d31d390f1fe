package qkd

import (
	"sort"
	"sync"
)

// Withdrawal causes: why a session spent QKD key material. The paper's
// utility-cost objective prices every key bit (U_qkd); the ledger
// attributes the measured spend to the decision that caused it so cost
// per session/route/cause is an observable, not a guess.
const (
	// CauseSetup is the initial withdrawal backing a session's key
	// ceremony at dial time.
	CauseSetup = "setup"
	// CauseBudgetRekey is a rekey forced or advised by the server's
	// per-session key byte budget running out.
	CauseBudgetRekey = "budget-rekey"
	// CauseReplan is an explicit rotation requested by the caller or
	// control plane outside budget pressure.
	CauseReplan = "replan"
	// CauseUnattributed covers withdrawals that reached the key centre
	// without attribution (plain Withdraw with a ledger attached). The
	// ledger still counts them, so its totals always reconcile with the
	// key centre's flow counters exactly.
	CauseUnattributed = "unattributed"
)

// Causes returns every ledger cause label — the bounded domain for
// metric labels.
func Causes() []string {
	return []string{CauseSetup, CauseBudgetRekey, CauseReplan, CauseUnattributed}
}

// Attribution labels one withdrawal with the decision that spent the key
// material. Route and Profile may be empty when unknown at spend time.
type Attribution struct {
	Route   string
	Profile string
	Cause   string
}

// LedgerEntry is one attributed withdrawal.
type LedgerEntry struct {
	Seq     int64  `json:"seq"`
	Session string `json:"session"`
	Route   string `json:"route,omitempty"`
	Profile string `json:"profile,omitempty"`
	Cause   string `json:"cause"`
	Bytes   int64  `json:"bytes"`
}

// CauseTotal aggregates one cause's spend.
type CauseTotal struct {
	Cause       string `json:"cause"`
	Withdrawals int64  `json:"withdrawals"`
	Bytes       int64  `json:"bytes"`
}

// SessionTotal aggregates one session's spend with its per-cause split.
type SessionTotal struct {
	Session     string       `json:"session"`
	Route       string       `json:"route,omitempty"`
	Profile     string       `json:"profile,omitempty"`
	Withdrawals int64        `json:"withdrawals"`
	Bytes       int64        `json:"bytes"`
	ByCause     []CauseTotal `json:"by_cause"`
}

// LedgerSnapshot is the /debug/keyledger payload: totals, per-cause and
// per-session aggregates, and the newest raw entries.
type LedgerSnapshot struct {
	Withdrawals int64          `json:"withdrawals"`
	Bytes       int64          `json:"bytes"`
	ByCause     []CauseTotal   `json:"by_cause"`
	Sessions    []SessionTotal `json:"sessions"`
	Recent      []LedgerEntry  `json:"recent"`
}

// ledgerRecent bounds the raw-entry ring kept for the snapshot's Recent
// view; aggregates are unaffected by the bound.
const ledgerRecent = 1024

// ledgerMaxSessions bounds the per-session aggregate map; spend by
// sessions past the cap still lands in the totals and per-cause rows
// (sessions are unbounded in principle, the ledger must not be).
const ledgerMaxSessions = 4096

// Ledger is the QKD key-flow ledger: every withdrawal that flows through
// an attached KeyCenter is recorded with its attribution, keeping exact
// running totals (they reconcile with KeyCenter.Counters by
// construction), bounded per-cause and per-session aggregates, and a
// ring of recent raw entries. Safe for concurrent use.
type Ledger struct {
	mu          sync.Mutex
	seq         int64
	withdrawals int64
	bytes       int64
	byCause     map[string]*CauseTotal
	sessions    map[string]*sessionAgg
	recent      []LedgerEntry
	next        int
	full        bool
}

type sessionAgg struct {
	route, profile      string
	withdrawals, bytesN int64
	byCause             map[string]*CauseTotal
}

// NewLedger builds an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		byCause:  make(map[string]*CauseTotal),
		sessions: make(map[string]*sessionAgg),
		recent:   make([]LedgerEntry, ledgerRecent),
	}
}

// Record enters one successful withdrawal. An empty cause is recorded as
// CauseUnattributed.
func (l *Ledger) Record(session string, bytes int, attr Attribution) {
	if attr.Cause == "" {
		attr.Cause = CauseUnattributed
	}
	l.mu.Lock()
	l.seq++
	l.withdrawals++
	l.bytes += int64(bytes)
	ct := l.byCause[attr.Cause]
	if ct == nil {
		ct = &CauseTotal{Cause: attr.Cause}
		l.byCause[attr.Cause] = ct
	}
	ct.Withdrawals++
	ct.Bytes += int64(bytes)
	sa := l.sessions[session]
	if sa == nil && len(l.sessions) < ledgerMaxSessions {
		sa = &sessionAgg{byCause: make(map[string]*CauseTotal)}
		l.sessions[session] = sa
	}
	if sa != nil {
		if attr.Route != "" {
			sa.route = attr.Route
		}
		if attr.Profile != "" {
			sa.profile = attr.Profile
		}
		sa.withdrawals++
		sa.bytesN += int64(bytes)
		sct := sa.byCause[attr.Cause]
		if sct == nil {
			sct = &CauseTotal{Cause: attr.Cause}
			sa.byCause[attr.Cause] = sct
		}
		sct.Withdrawals++
		sct.Bytes += int64(bytes)
	}
	if l.next == len(l.recent) {
		l.next, l.full = 0, true
	}
	l.recent[l.next] = LedgerEntry{
		Seq: l.seq, Session: session,
		Route: attr.Route, Profile: attr.Profile, Cause: attr.Cause,
		Bytes: int64(bytes),
	}
	l.next++
	l.mu.Unlock()
}

// Totals returns the cumulative withdrawal count and bytes across every
// cause — the reconciliation hook against KeyCenter.Counters.
func (l *Ledger) Totals() (withdrawals, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.withdrawals, l.bytes
}

// CauseBytes returns the cumulative bytes withdrawn under one cause.
func (l *Ledger) CauseBytes(cause string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ct := l.byCause[cause]; ct != nil {
		return ct.Bytes
	}
	return 0
}

// CauseWithdrawals returns the cumulative withdrawal count under one
// cause.
func (l *Ledger) CauseWithdrawals(cause string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ct := l.byCause[cause]; ct != nil {
		return ct.Withdrawals
	}
	return 0
}

// Snapshot captures the ledger for the /debug/keyledger view: per-cause
// rows sorted by spend, per-session rows sorted by session ID, and the
// newest raw entries oldest-first.
func (l *Ledger) Snapshot() LedgerSnapshot {
	l.mu.Lock()
	snap := LedgerSnapshot{Withdrawals: l.withdrawals, Bytes: l.bytes}
	for _, ct := range l.byCause {
		snap.ByCause = append(snap.ByCause, *ct)
	}
	for id, sa := range l.sessions {
		st := SessionTotal{
			Session: id, Route: sa.route, Profile: sa.profile,
			Withdrawals: sa.withdrawals, Bytes: sa.bytesN,
		}
		for _, ct := range sa.byCause {
			st.ByCause = append(st.ByCause, *ct)
		}
		sort.Slice(st.ByCause, func(i, j int) bool { return st.ByCause[i].Bytes > st.ByCause[j].Bytes })
		snap.Sessions = append(snap.Sessions, st)
	}
	n := l.next
	if l.full {
		n = len(l.recent)
	}
	snap.Recent = make([]LedgerEntry, n)
	if l.full {
		copy(snap.Recent, l.recent[l.next:])
		copy(snap.Recent[len(l.recent)-l.next:], l.recent[:l.next])
	} else {
		copy(snap.Recent, l.recent[:n])
	}
	l.mu.Unlock()
	sort.Slice(snap.ByCause, func(i, j int) bool { return snap.ByCause[i].Bytes > snap.ByCause[j].Bytes })
	sort.Slice(snap.Sessions, func(i, j int) bool { return snap.Sessions[i].Session < snap.Sessions[j].Session })
	return snap
}
