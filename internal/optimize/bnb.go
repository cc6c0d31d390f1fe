package optimize

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
)

// BnBProblem describes a maximization over assignments of NumVars discrete
// variables, each taking a value index in [0, NumChoices). It mirrors the
// structure of Stage 2 of the QuHE algorithm (Algorithm 2), where each
// client's polynomial degree λ_n is chosen from a small set.
type BnBProblem struct {
	NumVars    int
	NumChoices int
	// Value returns the objective of a complete assignment (to maximize).
	Value func(assign []int) float64
	// UpperBound returns an optimistic (admissible) bound on the best
	// objective achievable by any completion of assign[:assigned].
	// A sound bound never underestimates; an unsound bound may prune the
	// optimum (exposed in tests and the ablation bench).
	UpperBound func(assign []int, assigned int) float64
}

// BnBResult reports the outcome of MaximizeBnB.
type BnBResult struct {
	Assign []int
	Value  float64
	// Nodes is the number of subproblems popped from the queue.
	Nodes int
	// Incumbents traces the best objective after each node expansion
	// (the Stage-2 convergence curve of Fig. 4(b)).
	Incumbents []float64
	// Bounds traces the upper bound of each popped subproblem: a finite,
	// non-increasing certificate curve converging onto the optimum (the
	// mirror image of the paper's rising incumbent plot).
	Bounds []float64
}

// bnbNode is a subproblem: a prefix assignment plus its upper bound.
type bnbNode struct {
	assign   []int
	assigned int
	bound    float64
}

// bnbQueue is a max-heap of subproblems ordered by upper bound, matching
// Algorithm 2's "extract the subproblem with the highest upper bound".
type bnbQueue []*bnbNode

func (q bnbQueue) Len() int            { return len(q) }
func (q bnbQueue) Less(i, j int) bool  { return q[i].bound > q[j].bound }
func (q bnbQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *bnbQueue) Push(x interface{}) { *q = append(*q, x.(*bnbNode)) }
func (q *bnbQueue) Pop() interface{} {
	old := *q
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return item
}

// MaximizeBnB runs best-first branch & bound per Algorithm 2 of the paper.
func MaximizeBnB(p BnBProblem) (BnBResult, error) {
	var res BnBResult
	if p.NumVars <= 0 || p.NumChoices <= 0 {
		return res, fmt.Errorf("optimize: branch and bound needs positive dimensions, got %d vars × %d choices", p.NumVars, p.NumChoices)
	}
	if p.Value == nil || p.UpperBound == nil {
		return res, errors.New("optimize: branch and bound requires Value and UpperBound")
	}

	best := math.Inf(-1)
	var bestAssign []int

	q := &bnbQueue{}
	heap.Init(q)
	root := &bnbNode{assign: make([]int, p.NumVars), bound: math.Inf(1)}
	heap.Push(q, root)

	for q.Len() > 0 {
		node := heap.Pop(q).(*bnbNode)
		res.Nodes++
		res.Bounds = append(res.Bounds, node.bound)
		if node.bound <= best {
			// Everything left in a best-first queue is bounded by this
			// node's bound, so nothing better remains.
			break
		}
		if node.assigned == p.NumVars {
			if v := p.Value(node.assign); v > best {
				best = v
				bestAssign = append([]int(nil), node.assign...)
			}
			res.Incumbents = append(res.Incumbents, best)
			continue
		}
		for choice := 0; choice < p.NumChoices; choice++ {
			child := &bnbNode{
				assign:   append([]int(nil), node.assign...),
				assigned: node.assigned + 1,
			}
			child.assign[node.assigned] = choice
			child.bound = p.UpperBound(child.assign, child.assigned)
			if child.bound > best {
				heap.Push(q, child)
			}
		}
		res.Incumbents = append(res.Incumbents, best)
	}
	if bestAssign == nil {
		return res, errors.New("optimize: branch and bound pruned every leaf (unsound upper bound?)")
	}
	res.Assign = bestAssign
	res.Value = best
	return res, nil
}
