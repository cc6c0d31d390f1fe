package control

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"quhe/internal/obs"
	"quhe/internal/serve"
)

// ewmaAlpha is the smoothing factor of the per-session demand-rate EWMA:
// light enough that a plan interval of traffic dominates, heavy enough to
// ride out a window that caught no block.
const ewmaAlpha = 0.2

// SessionTelemetry accumulates one session's serving counters. All fields
// are updated atomically on the compute hot path — the registry adds one
// sync.Map load and a handful of atomic ops per block.
type SessionTelemetry struct {
	blocks atomic.Int64
	// demand counts every byte the session *asked* to have served —
	// completed blocks, failed blocks and admission-denied traffic alike —
	// so a fully shed session still registers load and its budget does
	// not collapse to the idle default.
	demand atomic.Int64
	// rotations counts the hoisted Galois rotations served for the
	// session (the BSGS matvec kernel's per-block rotation fan-out);
	// affine-only sessions stay at zero. The planner divides by served
	// blocks to recover the session's rotation intensity.
	rotations atomic.Int64
	// lat is the per-block latency histogram (seconds). Its snapshots
	// merge across a profile's sessions into the p99 the replanner holds
	// against its modeled delay.
	lat obs.Histogram
	// profile is the session's security profile (set once at
	// registration; atomic.Value of string).
	profile atomic.Value

	// Snapshot bookkeeping, touched only under the controller's plan lock.
	prevDemand int64
	prevAt     time.Time
	// rateBps smooths the per-window demand rate across planning rounds
	// (an EWMA, rated marking its first window): when blocks arrive slower
	// than the replan interval, individual windows alternate between
	// bursts and zero bytes, and an unsmoothed rate would make every
	// rate-derived plan term (budget stretch, λ choice) flap plan-to-plan.
	rateBps float64
	rated   bool
}

// SessionSnapshot is a point-in-time view of one session's telemetry.
type SessionSnapshot struct {
	ID string
	// Blocks counts the session's served blocks.
	Blocks int64
	// Profile is the security profile the session registered on ("" when
	// the serving plane never reported one).
	Profile string
	// Rotations counts the hoisted Galois rotations served for the
	// session (0 for affine-only traffic). Rotations/Blocks is the
	// session's rotation intensity the rotation-aware λ choice plans
	// with.
	Rotations int64
	// BytesPerSec is the session's demand rate: an EWMA of the per-window
	// rates observed between snapshots — served and shed traffic both
	// count, so shedding a session does not erase its demand signal, and
	// a window that happens to catch no block (blocks slower than the
	// replan interval) decays the rate instead of zeroing it.
	BytesPerSec float64
}

// ProfileSnapshot aggregates one security profile's serving state for a
// planning round.
type ProfileSnapshot struct {
	// Blocks totals the blocks served on the profile.
	Blocks int64
	// LatencyP99Ms is the 99th percentile of the merged per-block latency
	// histograms of the profile's sessions — the measured tail the
	// replanner holds against its modeled delay.
	LatencyP99Ms float64
}

// Snapshot is the registry view a Controller plans against.
type Snapshot struct {
	At       time.Time
	Sessions []SessionSnapshot
	// DemandBytesPerSec aggregates the per-session demand rates (served
	// and shed traffic).
	DemandBytesPerSec float64
	// Profiles aggregates sessions per security profile.
	Profiles map[string]ProfileSnapshot
}

// Telemetry is the lock-cheap registry the serving plane publishes into:
// per-session demand bytes, served blocks and block latencies pushed by
// the edge server on every block, and per-session profiles reported at
// registration. It
// is the sensing half of the control loop; Controller.Replan consumes
// Snapshot. A registered session's entry lives as long as the bound
// session store keeps the session: Snapshot drops the rest.
type Telemetry struct {
	sessions sync.Map // string -> *SessionTelemetry

	// store is write-once at BindServe, read by Snapshot, which keeps
	// only the sessions it holds.
	store atomic.Pointer[serve.Store]
}

// NewTelemetry builds an empty registry.
func NewTelemetry() *Telemetry { return &Telemetry{} }

// BindServe attaches the serving plane's session store. Called by the
// edge server at construction; store may be nil.
func (t *Telemetry) BindServe(store *serve.Store) {
	if store != nil {
		t.store.Store(store)
	}
}

func (t *Telemetry) session(id string) *SessionTelemetry {
	if st, ok := t.sessions.Load(id); ok {
		return st.(*SessionTelemetry)
	}
	st, _ := t.sessions.LoadOrStore(id, &SessionTelemetry{})
	return st.(*SessionTelemetry)
}

// ObserveSession records a registration and the security profile the
// session landed on.
func (t *Telemetry) ObserveSession(sessionID, profileID string) {
	t.session(sessionID).profile.Store(profileID)
}

// ObserveCompute records one served (or failed) block for a session. The
// attempted bytes count as demand regardless of outcome.
func (t *Telemetry) ObserveCompute(sessionID string, bytes int64, latency time.Duration, code serve.Code) {
	st := t.session(sessionID)
	st.demand.Add(bytes)
	if code != serve.CodeOK {
		return
	}
	st.blocks.Add(1)
	st.lat.Observe(latency.Seconds())
}

// ObserveRotations records n hoisted Galois rotations served for a
// session (published by the edge server's matvec path alongside the
// block's ObserveCompute). The planner folds the per-block rotation
// intensity into its delay models, so rotation-heavy routes price their
// key-switch work instead of looking like cheap affine traffic.
func (t *Telemetry) ObserveRotations(sessionID string, n int) {
	if n <= 0 {
		return
	}
	t.session(sessionID).rotations.Add(int64(n))
}

// ObserveShed records traffic the admission controller refused for a
// session: the bytes feed the demand signal (a fully shed session must
// not look idle to the planner) without counting as served work.
func (t *Telemetry) ObserveShed(sessionID string, bytes int64) {
	if bytes <= 0 {
		return
	}
	t.session(sessionID).demand.Add(bytes)
}

// SessionProfile reports the profile a session registered on ("" if the
// serving plane never told us).
func (t *Telemetry) SessionProfile(sessionID string) string {
	if st, ok := t.sessions.Load(sessionID); ok {
		if p, ok := st.(*SessionTelemetry).profile.Load().(string); ok {
			return p
		}
	}
	return ""
}

// Snapshot captures the registry for one planning round, computing
// per-session demand rates from the demand-byte deltas since the previous
// call. It drops what the bound store does not hold: a registered
// session (ObserveSession) as soon as the store evicts or removes it, an
// entry no registration made (a block that finished after its session
// was evicted, or synthetic traffic) once a round passes without demand
// for it. With no store bound nothing is dropped. It is called by the
// Controller under its plan lock; the hot-path publishers never block on
// it.
func (t *Telemetry) Snapshot() Snapshot {
	now := time.Now()
	snap := Snapshot{At: now, Profiles: make(map[string]ProfileSnapshot)}
	// Per-profile merged latency histograms, finalized after the Range.
	profLat := make(map[string]obs.HistSnapshot)
	store := t.store.Load()
	t.sessions.Range(func(k, v any) bool {
		id, st := k.(string), v.(*SessionTelemetry)
		demand := st.demand.Load()
		if store != nil && (st.profile.Load() != nil || demand == st.prevDemand) {
			if _, ok := store.Peek(id); !ok {
				t.sessions.Delete(k)
				return true
			}
		}
		s := SessionSnapshot{
			ID:        id,
			Blocks:    st.blocks.Load(),
			Rotations: st.rotations.Load(),
		}
		if p, ok := st.profile.Load().(string); ok {
			s.Profile = p
		}
		if !st.prevAt.IsZero() {
			if dt := now.Sub(st.prevAt).Seconds(); dt > 0 {
				rate := float64(demand-st.prevDemand) / dt
				if st.rated {
					rate = (1-ewmaAlpha)*st.rateBps + ewmaAlpha*rate
				}
				st.rateBps, st.rated = rate, true
			}
		}
		s.BytesPerSec = st.rateBps
		st.prevDemand, st.prevAt = demand, now
		snap.Sessions = append(snap.Sessions, s)
		snap.DemandBytesPerSec += s.BytesPerSec
		if s.Profile != "" {
			ps := snap.Profiles[s.Profile]
			ps.Blocks += s.Blocks
			snap.Profiles[s.Profile] = ps
			profLat[s.Profile] = profLat[s.Profile].Merge(st.lat.Snapshot())
		}
		return true
	})
	for id, hs := range profLat {
		ps := snap.Profiles[id]
		ps.LatencyP99Ms = hs.Quantile(0.99) * 1e3
		snap.Profiles[id] = ps
	}
	sortSessions(snap.Sessions)
	return snap
}

// sortSessions orders snapshots by ID so plans and logs are deterministic.
func sortSessions(s []SessionSnapshot) {
	sort.Slice(s, func(i, j int) bool { return s[i].ID < s[j].ID })
}
