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
	bytes  atomic.Int64
	blocks atomic.Int64
	// demand counts every byte the session *asked* to have served —
	// completed blocks, failed blocks and admission-denied traffic alike.
	// The demand predictor reads this instead of the served-bytes
	// counter, so a fully shed session still registers load and its
	// budget does not collapse to the idle default.
	demand    atomic.Int64
	shedBytes atomic.Int64
	// rotations counts the hoisted Galois rotations served for the
	// session (the BSGS matvec kernel's per-block rotation fan-out);
	// affine-only sessions stay at zero. The planner divides by served
	// blocks to recover the session's rotation intensity.
	rotations atomic.Int64
	lastSeen  atomic.Int64 // unix nanos
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
	ID            string
	Bytes, Blocks int64
	// Profile is the security profile the session registered on ("" when
	// the serving plane never reported one).
	Profile string
	// ShedBytes counts traffic denied by admission since registration.
	ShedBytes int64
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
	// Sessions counts sessions registered on the profile.
	Sessions int
	// BytesPerSec is the aggregate demand rate of those sessions.
	BytesPerSec float64
	// Blocks and Bytes total the served work; Rotations totals the hoisted
	// Galois rotations those blocks carried.
	Blocks, Bytes int64
	Rotations     int64
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

// sessionTTL prunes telemetry for sessions with no traffic (evicted or
// abandoned) so the registry cannot grow without bound.
const sessionTTL = 5 * time.Minute

// Telemetry is the lock-cheap registry the serving plane publishes into:
// per-session byte counts and block latencies pushed by the edge server
// on every block, and per-session profiles reported at registration. It
// is the sensing half of the control loop; Controller.Replan consumes
// Snapshot.
type Telemetry struct {
	sessions sync.Map // string -> *SessionTelemetry
	denied   atomic.Int64

	// sched is write-once at BindServe and read lock-free on the admission
	// hot path (queue occupancy) and by Replan (queue actuation).
	sched atomic.Pointer[serve.Scheduler]
}

// NewTelemetry builds an empty registry.
func NewTelemetry() *Telemetry { return &Telemetry{} }

// BindServe attaches the serving plane's scheduler. Called by the edge
// server at construction; sched may be nil.
func (t *Telemetry) BindServe(sched *serve.Scheduler) {
	if sched != nil {
		t.sched.Store(sched)
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
	st := t.session(sessionID)
	st.lastSeen.Store(time.Now().UnixNano())
	st.profile.Store(profileID)
}

// ObserveCompute records one served (or failed) block for a session. The
// attempted bytes count as demand regardless of outcome.
func (t *Telemetry) ObserveCompute(sessionID string, bytes int64, latency time.Duration, code serve.Code) {
	st := t.session(sessionID)
	st.lastSeen.Store(time.Now().UnixNano())
	st.demand.Add(bytes)
	if code != serve.CodeOK {
		return
	}
	st.blocks.Add(1)
	st.bytes.Add(bytes)
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
	st := t.session(sessionID)
	st.lastSeen.Store(time.Now().UnixNano())
	st.rotations.Add(int64(n))
}

// ObserveShed records traffic the admission controller refused for a
// session: the bytes feed the demand signal (a fully shed session must
// not look idle to the planner) without counting as served work.
func (t *Telemetry) ObserveShed(sessionID string, bytes int64) {
	if bytes <= 0 {
		return
	}
	st := t.session(sessionID)
	st.lastSeen.Store(time.Now().UnixNano())
	st.demand.Add(bytes)
	st.shedBytes.Add(bytes)
}

// ObserveAdmission records one admission decision; denials are what is
// counted.
func (t *Telemetry) ObserveAdmission(admitted bool) {
	if !admitted {
		t.denied.Add(1)
	}
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
// call and pruning sessions idle past the TTL. It is called by the
// Controller under its plan lock; the hot-path publishers never block on
// it.
func (t *Telemetry) Snapshot() Snapshot {
	now := time.Now()
	snap := Snapshot{At: now, Profiles: make(map[string]ProfileSnapshot)}
	// Per-profile merged latency histograms, finalized after the Range.
	profLat := make(map[string]obs.HistSnapshot)
	t.sessions.Range(func(k, v any) bool {
		id, st := k.(string), v.(*SessionTelemetry)
		if last := st.lastSeen.Load(); last != 0 && now.Sub(time.Unix(0, last)) > sessionTTL {
			t.sessions.Delete(k)
			return true
		}
		s := SessionSnapshot{
			ID:        id,
			Bytes:     st.bytes.Load(),
			Blocks:    st.blocks.Load(),
			ShedBytes: st.shedBytes.Load(),
			Rotations: st.rotations.Load(),
		}
		if p, ok := st.profile.Load().(string); ok {
			s.Profile = p
		}
		demand := st.demand.Load()
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
			ps.Sessions++
			ps.BytesPerSec += s.BytesPerSec
			ps.Blocks += s.Blocks
			ps.Bytes += s.Bytes
			ps.Rotations += s.Rotations
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
