// Package qnet models the entanglement-based QKD network of the QuHE paper
// (§III-B): links with Werner-parameter noise, routes from a key centre to
// client nodes, link capacities, the secret-key fraction, and the QKD
// network utility (Eq. 6). It also contains a discrete-event entanglement
// distribution simulator used to cross-validate the analytic capacity model.
// It defines the two programs the planner and the reproduction share, each
// with its one solver: Stage1 (P2, the rate allocation, Algorithm 1) and
// Stage2 (Eq. 22, the λ choice: Σ rewards − α_T·max delay, Algorithm 2).
//
// Conventions: link and route IDs are 1-based as in the paper's Tables III
// and IV; slice indices are 0-based. The Werner parameter w ∈ (0,1] measures
// entangled-pair quality (w=1 is a perfect Bell pair).
package qnet

import (
	"errors"
	"fmt"
	"math"
)

// Link is a fibre segment that generates entangled pairs.
type Link struct {
	// ID is the 1-based link identifier from Table IV.
	ID int
	// LengthKm is the fibre length in kilometres.
	LengthKm float64
	// Beta is the capacity coefficient β_l = 3κ_l·η_l/(2T_l) of Eq. (3):
	// the link's entanglement generation rate at w→0, in pairs/second.
	Beta float64
}

// Route is an end-to-end path from the key centre to a client node,
// expressed as the set of links it traverses (the paper's A matrix).
type Route struct {
	// ID is the 1-based route identifier from Table III. The destination
	// of route n is client node n.
	ID int
	// Source and Dest name the end nodes (informational).
	Source, Dest string
	// LinkIDs lists the 1-based IDs of the links on the route.
	LinkIDs []int
}

// Network is a validated set of links and routes.
type Network struct {
	links  []Link
	routes []Route
	// uses[n][l] is true when route n (0-based) traverses link l (0-based).
	uses [][]bool
}

// New validates the links and routes and builds a Network. Link IDs must be
// exactly 1..len(links); routes must reference existing links.
func New(links []Link, routes []Route) (*Network, error) {
	if len(links) == 0 || len(routes) == 0 {
		return nil, errors.New("qnet: network needs at least one link and one route")
	}
	for i, l := range links {
		if l.ID != i+1 {
			return nil, fmt.Errorf("qnet: link at position %d has ID %d, want %d", i, l.ID, i+1)
		}
		if l.Beta <= 0 {
			return nil, fmt.Errorf("qnet: link %d has non-positive beta %g", l.ID, l.Beta)
		}
		if l.LengthKm < 0 {
			return nil, fmt.Errorf("qnet: link %d has negative length %g", l.ID, l.LengthKm)
		}
	}
	uses := make([][]bool, len(routes))
	for i, r := range routes {
		if r.ID != i+1 {
			return nil, fmt.Errorf("qnet: route at position %d has ID %d, want %d", i, r.ID, i+1)
		}
		if len(r.LinkIDs) == 0 {
			return nil, fmt.Errorf("qnet: route %d has no links", r.ID)
		}
		uses[i] = make([]bool, len(links))
		for _, lid := range r.LinkIDs {
			if lid < 1 || lid > len(links) {
				return nil, fmt.Errorf("qnet: route %d references unknown link %d", r.ID, lid)
			}
			if uses[i][lid-1] {
				return nil, fmt.Errorf("qnet: route %d lists link %d twice", r.ID, lid)
			}
			uses[i][lid-1] = true
		}
	}
	return &Network{links: append([]Link(nil), links...), routes: append([]Route(nil), routes...), uses: uses}, nil
}

// NumLinks returns L, the number of links.
func (n *Network) NumLinks() int { return len(n.links) }

// NumRoutes returns N, the number of routes (= client nodes).
func (n *Network) NumRoutes() int { return len(n.routes) }

// Link returns the link with 0-based index l.
func (n *Network) Link(l int) Link { return n.links[l] }

// Route returns the route with 0-based index r.
func (n *Network) Route(r int) Route {
	rt := n.routes[r]
	rt.LinkIDs = append([]int(nil), rt.LinkIDs...)
	return rt
}

// LinkLoads returns, for each link, the total entanglement rate Σ_n a_ln·φ_n
// imposed by the route allocation phi (pairs/second).
func (n *Network) LinkLoads(phi []float64) ([]float64, error) {
	if len(phi) != len(n.routes) {
		return nil, fmt.Errorf("qnet: %d rates for %d routes", len(phi), len(n.routes))
	}
	loads := make([]float64, len(n.links))
	for r := range n.routes {
		for l := range n.links {
			if n.uses[r][l] {
				loads[l] += phi[r]
			}
		}
	}
	return loads, nil
}

// WernerFromRates computes the optimal Werner parameters of Eq. (18):
// w_l = 1 − (Σ_n a_ln φ_n)/β_l, i.e. each link runs exactly at the capacity
// the allocation demands. Values are not clamped; callers should check
// feasibility (0 < w ≤ 1) via FeasibleRates.
func (n *Network) WernerFromRates(phi []float64) ([]float64, error) {
	loads, err := n.LinkLoads(phi)
	if err != nil {
		return nil, err
	}
	w := make([]float64, len(n.links))
	for l := range w {
		w[l] = 1 - loads[l]/n.links[l].Beta
	}
	return w, nil
}

// FeasibleRates reports whether phi satisfies Constraint (19a): every rate
// is strictly positive and every link load Σ a_ln·φ_n stays strictly below
// β_l. (Unused links carry zero load and keep w_l = 1, which (17b) allows.)
func (n *Network) FeasibleRates(phi []float64) bool {
	for _, p := range phi {
		if p <= 0 {
			return false
		}
	}
	loads, err := n.LinkLoads(phi)
	if err != nil {
		return false
	}
	for l, load := range loads {
		if load >= n.links[l].Beta {
			return false
		}
	}
	return true
}

// EndToEndWerner computes ̟_r = Π_l w_l^{a_lr} for 0-based route r (Eq. 5):
// the Werner parameter after entanglement swapping along the route.
func (n *Network) EndToEndWerner(r int, w []float64) (float64, error) {
	if len(w) != len(n.links) {
		return 0, fmt.Errorf("qnet: %d werner values for %d links", len(w), len(n.links))
	}
	if r < 0 || r >= len(n.routes) {
		return 0, fmt.Errorf("qnet: route index %d out of range", r)
	}
	prod := 1.0
	for l := range n.links {
		if n.uses[r][l] {
			prod *= w[l]
		}
	}
	return prod, nil
}

// RouteWerner returns ̟_r at the Eq. (18) point of phi: the product over
// route r's links of w_l = 1 − (Σ_n a_ln φ_n)/β_l. It is EndToEndWerner of
// WernerFromRates, bit for bit, touching only the route's own links and
// allocating nothing.
func (n *Network) RouteWerner(r int, phi []float64) float64 {
	prod := 1.0
	for l, link := range n.links {
		if !n.uses[r][l] {
			continue
		}
		load := 0.0
		for q := range n.routes {
			if n.uses[q][l] {
				load += phi[q]
			}
		}
		prod *= 1 - load/link.Beta
	}
	return prod
}

// DeriveBeta computes β = 3κη/(2T) from the physical link model used in the
// paper's source topology [31]: η is the transmissivity from one end to the
// midpoint with fibre attenuation alphaDBPerKm, κ is the link inefficiency
// factor (photon loss excluded), and genTime T is the entanglement
// generation period in seconds. The Table IV values remain authoritative for
// reproduction; this function exists for building new topologies.
func DeriveBeta(lengthKm, kappa, alphaDBPerKm, genTime float64) float64 {
	if genTime <= 0 {
		return 0
	}
	eta := math.Pow(10, -alphaDBPerKm*(lengthKm/2)/10)
	return 3 * kappa * eta / (2 * genTime)
}
