package qnet

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
)

// SimConfig configures the discrete-event entanglement-distribution
// simulator.
type SimConfig struct {
	// Duration is the simulated time horizon in seconds. Default 100.
	Duration float64
	// Seed seeds the RNG; 0 means a fixed default so runs are reproducible.
	Seed int64
}

func (c SimConfig) defaults() SimConfig {
	if c.Duration <= 0 {
		c.Duration = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SimResult summarizes a simulation run.
type SimResult struct {
	// LinkGenerated counts entangled pairs generated per link.
	LinkGenerated []int
	// LinkRate is the empirical generation rate per link (pairs/s), to be
	// compared against the analytic capacity β_l(1−w_l) of Eq. (3).
	LinkRate []float64
	// RouteRequested and RouteDelivered count end-to-end entanglement
	// requests and successful deliveries per route.
	RouteRequested []int
	RouteDelivered []int
	// RouteRate is the empirical delivered end-to-end rate (pairs/s).
	RouteRate []float64
	// RouteQBER is the empirical quantum bit error rate measured on
	// delivered pairs (sifted-basis sampling of the Werner state).
	RouteQBER []float64
	// RouteSKF is the empirical secret-key fraction 1−2·h2(QBER) clamped
	// at zero, comparable to SecretKeyFraction(̟_n).
	RouteSKF []float64
}

// event types for the simulator's priority queue.
const (
	evLinkGen = iota
	evRouteReq
)

type simEvent struct {
	at   float64
	kind int
	idx  int
}

type eventQueue []simEvent

func (q eventQueue) Len() int            { return len(q) }
func (q eventQueue) Less(i, j int) bool  { return q[i].at < q[j].at }
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(simEvent)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// SimulateEntanglementDistribution runs a discrete-event simulation of the
// QKD substrate: each link generates Werner pairs as a Poisson process at
// its capacity β_l(1−w_l); each route issues end-to-end requests as a
// Poisson process at its allocated rate φ_n, consuming one stored pair from
// every link on the route (entanglement swapping). Delivered pairs have
// end-to-end Werner parameter Π w_l, from which a measurement error is
// sampled with probability (1−̟)/2 to estimate the empirical QBER and
// secret-key fraction.
//
// For feasible allocations (link loads below capacity) the delivery ratio
// approaches 1 and the empirical SKF approaches SecretKeyFraction(̟_n),
// which is exactly the model Stage 1 of QuHE optimizes.
func (n *Network) SimulateEntanglementDistribution(phi, w []float64, cfg SimConfig) (SimResult, error) {
	c := cfg.defaults()
	var res SimResult
	if len(phi) != len(n.routes) {
		return res, fmt.Errorf("qnet: %d rates for %d routes", len(phi), len(n.routes))
	}
	if len(w) != len(n.links) {
		return res, fmt.Errorf("qnet: %d werner values for %d links", len(w), len(n.links))
	}
	for l, wl := range w {
		if wl <= 0 || wl > 1 {
			return res, fmt.Errorf("qnet: link %d werner %g outside (0,1]", l+1, wl)
		}
	}
	rng := rand.New(rand.NewSource(c.Seed))

	L, N := len(n.links), len(n.routes)
	capacities := make([]float64, L)
	for l := range capacities {
		capacities[l] = LinkCapacity(n.links[l].Beta, w[l])
	}
	endWerner := make([]float64, N)
	for r := range n.routes {
		ew, err := n.EndToEndWerner(r, w)
		if err != nil {
			return res, err
		}
		endWerner[r] = ew
	}

	res.LinkGenerated = make([]int, L)
	res.RouteRequested = make([]int, N)
	res.RouteDelivered = make([]int, N)
	errorsPerRoute := make([]int, N)
	buffers := make([]int, L)

	q := &eventQueue{}
	heap.Init(q)
	expo := func(rate float64) float64 {
		return rng.ExpFloat64() / rate
	}
	for l := 0; l < L; l++ {
		if capacities[l] > 0 {
			heap.Push(q, simEvent{at: expo(capacities[l]), kind: evLinkGen, idx: l})
		}
	}
	for r := 0; r < N; r++ {
		if phi[r] > 0 {
			heap.Push(q, simEvent{at: expo(phi[r]), kind: evRouteReq, idx: r})
		}
	}

	for q.Len() > 0 {
		ev := heap.Pop(q).(simEvent)
		if ev.at > c.Duration {
			break
		}
		switch ev.kind {
		case evLinkGen:
			res.LinkGenerated[ev.idx]++
			buffers[ev.idx]++
			heap.Push(q, simEvent{at: ev.at + expo(capacities[ev.idx]), kind: evLinkGen, idx: ev.idx})
		case evRouteReq:
			res.RouteRequested[ev.idx]++
			if n.tryConsume(ev.idx, buffers) {
				res.RouteDelivered[ev.idx]++
				// Sample a sifted-basis measurement on the swapped Werner
				// pair: error probability (1−̟)/2.
				if rng.Float64() < QBER(endWerner[ev.idx]) {
					errorsPerRoute[ev.idx]++
				}
			}
			heap.Push(q, simEvent{at: ev.at + expo(phi[ev.idx]), kind: evRouteReq, idx: ev.idx})
		}
	}

	res.LinkRate = make([]float64, L)
	for l := range res.LinkRate {
		res.LinkRate[l] = float64(res.LinkGenerated[l]) / c.Duration
	}
	res.RouteRate = make([]float64, N)
	res.RouteQBER = make([]float64, N)
	res.RouteSKF = make([]float64, N)
	for r := 0; r < N; r++ {
		res.RouteRate[r] = float64(res.RouteDelivered[r]) / c.Duration
		if res.RouteDelivered[r] > 0 {
			res.RouteQBER[r] = float64(errorsPerRoute[r]) / float64(res.RouteDelivered[r])
		} else {
			res.RouteQBER[r] = math.NaN()
		}
		if !math.IsNaN(res.RouteQBER[r]) {
			skf := 1 - 2*BinaryEntropy(math.Min(res.RouteQBER[r], 0.5))
			if skf < 0 {
				skf = 0
			}
			res.RouteSKF[r] = skf
		}
	}
	return res, nil
}

// tryConsume removes one buffered pair from every link of route r,
// reporting false (and consuming nothing) when any link buffer is empty.
func (n *Network) tryConsume(r int, buffers []int) bool {
	for l := range n.links {
		if n.uses[r][l] && buffers[l] == 0 {
			return false
		}
	}
	for l := range n.links {
		if n.uses[r][l] {
			buffers[l]--
		}
	}
	return true
}

// LinkCapacity returns c_l = β_l(1−w_l) of Eq. (3): the distillable-pair
// generation rate a link sustains at Werner parameter w.
func LinkCapacity(beta, w float64) float64 {
	c := beta * (1 - w)
	if c < 0 {
		return 0
	}
	return c
}
