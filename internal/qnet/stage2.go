package qnet

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrStage2Infeasible reports tables in which every assignment reads NaN or −∞.
var ErrStage2Infeasible = errors.New("qnet: stage-2 program has no finite assignment")

// Stage2 is the paper's Stage-2 program (Eq. 22): choose one column j_n of
// the tables per client n to maximize
//
//	F_s2 = Const + Σ_n Reward[n][j_n] − AlphaT · max(0, max_n Delay[n][j_n])
//
// The max couples the clients: only a client that sets it pays for its
// delay. This file is the tree's only definition of that program and of its
// one solver, Maximize, Algorithm 2's best-first branch and bound.
// internal/core fills the tables from the paper's cost model (client × λ);
// internal/control fills them per route × profile on every replan.
type Stage2 struct {
	// Const is the part of F_s2 no choice moves. It opens every sum, so a
	// solve adds the same terms in the same order as the paper's objective.
	Const float64
	// Reward[n][j] and Delay[n][j] are client n's at choice j: rows of any
	// nonzero length, Delay's matching Reward's.
	Reward, Delay [][]float64
	// AlphaT weights the max delay.
	AlphaT float64

	// The search, reused so a warm solve allocates only its solution: node
	// k's choices are prefix[k·n : k·n+depth[k]], its bound queue.bound[k].
	prefix     []int
	depth      []int
	queue      stage2Queue
	top, least []float64 // per client: its best reward, its least delay
	trace      []float64
}

// Stage2Solution is a solve of the Stage-2 program.
type Stage2Solution struct {
	// Assign holds each client's column, Value is F_s2 there and MaxDelay
	// its max delay (T*_s2 of Eq. 23).
	Assign   []int
	Value    float64
	MaxDelay float64
	// Nodes counts the subproblems popped, the root included; Trace holds
	// the bound of each after the root, non-increasing onto the optimum
	// (Fig. 4(b), the certificate mirror of the paper's rising incumbent).
	Nodes int
	Trace []float64
}

// stage2Queue is a max-heap of node indices ordered by their bound:
// Algorithm 2 extracts the subproblem with the highest upper bound.
// Maximize pushes and pops as heap.Push and heap.Pop do, through heap.Fix,
// so no index is boxed; Push and Pop only complete heap.Interface.
type stage2Queue struct {
	heap  []int
	bound []float64
}

func (q *stage2Queue) Len() int           { return len(q.heap) }
func (q *stage2Queue) Less(i, j int) bool { return q.bound[q.heap[i]] > q.bound[q.heap[j]] }
func (q *stage2Queue) Swap(i, j int)      { q.heap[i], q.heap[j] = q.heap[j], q.heap[i] }
func (q *stage2Queue) Push(x any)         { q.heap = append(q.heap, x.(int)) }
func (q *stage2Queue) Pop() any {
	k := q.heap[len(q.heap)-1]
	q.heap = q.heap[:len(q.heap)-1]
	return k
}

// upper bounds F_s2 over every completion of the choices in assign (the
// first len(assign) clients): their rewards plus each open client's best,
// less AlphaT times the largest of their delays and each open client's
// least. The terms are summed in client order, so a complete assignment's
// bound is its value, bit for bit. A NaN among the chosen entries makes the
// bound NaN, and a NaN bound is never kept: a choice the tables cannot
// price is never taken.
func (p *Stage2) upper(assign []int) float64 {
	s, dmax := p.Const, 0.0
	for i, j := range assign {
		s += p.Reward[i][j]
		if d := p.Delay[i][j]; d > dmax || math.IsNaN(d) {
			dmax = d
		}
	}
	for i := len(assign); i < len(p.Reward); i++ {
		s += p.top[i]
		if p.least[i] > dmax {
			dmax = p.least[i]
		}
	}
	return s - p.AlphaT*dmax
}

// Maximize runs Algorithm 2: best-first branch and bound over the clients
// in order, one child per choice, each kept only while its bound beats the
// incumbent, until the best bound left is no better. On SURFnet's 6 routes
// × 3 profiles a solve pops a handful of the 729 leaves' ancestors in
// microseconds, and a warm solve allocates only Assign and Trace. It fails
// with ErrStage2Infeasible when no assignment has a value above −∞.
func (p *Stage2) Maximize() (Stage2Solution, error) {
	var sol Stage2Solution
	n := len(p.Reward)
	if n == 0 || len(p.Delay) != n {
		return sol, fmt.Errorf("qnet: stage-2 tables of %d reward and %d delay rows", n, len(p.Delay))
	}
	p.top, p.least = p.top[:0], p.least[:0]
	for i, row := range p.Reward {
		if len(row) == 0 || len(p.Delay[i]) != len(row) {
			return sol, fmt.Errorf("qnet: stage-2 client %d has %d rewards and %d delays", i, len(row), len(p.Delay[i]))
		}
		top, least := math.Inf(-1), math.Inf(1)
		for j, r := range row { // by comparison, so a NaN entry is passed over
			if r > top {
				top = r
			}
			if d := p.Delay[i][j]; d < least {
				least = d
			}
		}
		p.top, p.least = append(p.top, top), append(p.least, least)
	}

	// The root: no choice made (its row is never read), an infinite bound.
	p.prefix = slices.Grow(p.prefix[:0], n)[:n]
	p.depth = append(p.depth[:0], 0)
	q := &p.queue
	q.heap, q.bound = append(q.heap[:0], 0), append(q.bound[:0], math.Inf(1))
	p.trace = p.trace[:0]
	best, bestNode := math.Inf(-1), -1
	for len(q.heap) > 0 {
		k, last := q.heap[0], len(q.heap)-1
		q.heap[0], q.heap = q.heap[last], q.heap[:last]
		heap.Fix(q, 0)
		sol.Nodes++
		bound := q.bound[k]
		if k > 0 {
			p.trace = append(p.trace, bound)
		}
		if bound <= best {
			// Everything left in a best-first queue is bounded by this
			// node's bound, so nothing better remains.
			break
		}
		d := p.depth[k]
		if d == n {
			best, bestNode = bound, k
			continue
		}
		for j := range p.Reward[d] {
			child := len(p.depth)
			p.prefix = append(p.prefix, p.prefix[k*n:(k+1)*n]...)
			p.prefix[child*n+d] = j
			if b := p.upper(p.prefix[child*n : child*n+d+1]); b > best {
				p.depth = append(p.depth, d+1)
				q.heap, q.bound = append(q.heap, child), append(q.bound, b)
				heap.Fix(q, len(q.heap)-1)
			} else {
				p.prefix = p.prefix[:child*n]
			}
		}
	}
	if bestNode < 0 {
		return sol, ErrStage2Infeasible
	}
	sol.Assign = append([]int(nil), p.prefix[bestNode*n:(bestNode+1)*n]...)
	sol.Value = best
	for i, j := range sol.Assign {
		sol.MaxDelay = math.Max(sol.MaxDelay, p.Delay[i][j])
	}
	sol.Trace = append([]float64(nil), p.trace...)
	return sol, nil
}
