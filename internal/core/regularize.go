package core

import (
	"fmt"
	"sort"

	"dblayout/internal/layout"
)

// Regularize converts the solver's (possibly non-regular) layout into a
// regular one using the post-processing algorithm of paper Sec. 4.3.
//
// Objects are regularized one at a time in decreasing order of the total
// storage system load they impose (sum over targets of mu_ij), so that load
// imbalances introduced early can be corrected by later objects. For each
// object, two classes of regular candidate rows are generated:
//
//   - consistent candidates: the top-k targets of the object's solver row,
//     ranked by assigned fraction (ties broken by target index), each
//     holding 1/k — the only regular layouts that preserve the solver's
//     ordering of fractions;
//   - balancing candidates: the k least-utilized targets under the current
//     partially-regularized layout, each holding 1/k.
//
// Candidates violating the capacity constraint are discarded; among the rest
// the one minimizing the maximum target utilization wins. If every candidate
// for some object is invalid, Regularize fails (the paper notes manual
// intervention would then be required).
func Regularize(ev *layout.Evaluator, inst *layout.Instance, solved *layout.Layout) (*layout.Layout, error) {
	n, m := solved.N, solved.M
	l := solved.Clone()
	caps := inst.Capacities()

	// Regularization order: decreasing total imposed load. The loads are
	// precomputed in one batch pass (bit-identical to per-object
	// ev.ObjectLoad calls, which would cost O(N) target sweeps each), so
	// the ordering step is the O(N log N) sort, not an O(N^2) scan.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	loads := ev.ObjectLoads(solved)
	sort.SliceStable(order, func(a, b int) bool { return loads[order[a]] > loads[order[b]] })

	// On fleet-scale problems generating all M stripe widths per object
	// would reintroduce an O(N*M^2) term; bound the widths considered, the
	// same way the transfer search bounds its candidate scans. Paper-scale
	// problems stay below the threshold and keep the exhaustive scan, so
	// their output is unchanged.
	maxWidth := m
	if n*m >= regularizeAutoPairs && maxWidth > regularizeMaxWidth {
		maxWidth = regularizeMaxWidth
	}

	// A candidate row changes only the targets whose own cell changes, so
	// the incremental kernel prices each candidate in O(changed targets *
	// active objects) against the current partially-regularized layout.
	inc := ev.NewIncremental(l)
	utils := inc.Utilizations(nil)
	tb := newTargetBytes(l, inst.Sizes())

	for _, i := range order {
		if l.RowRegular(i) {
			continue
		}
		oldRow := l.Row(i)

		var candidates [][]float64
		candidates = append(candidates, consistentCandidates(oldRow, maxWidth)...)
		candidates = append(candidates, balancingCandidates(utils, maxWidth)...)

		bestObj := -1.0
		var bestRow []float64
		var bestUtils []float64
		for _, cand := range candidates {
			if !capacityOK(tb, i, cand, caps) || !constraintsOK(inst, l, i, cand) {
				continue
			}
			newUtils, obj := evalCandidate(inc, utils, i, oldRow, cand)
			if bestObj < 0 || obj < bestObj {
				bestObj = obj
				bestRow = cand
				bestUtils = newUtils
			}
		}
		if bestRow == nil {
			return nil, fmt.Errorf("no valid regular layout for object %q: space constraints too tight",
				inst.Objects[i].Name)
		}
		tb.setRow(inc, i, bestRow)
		utils = bestUtils
	}
	if !l.IsRegular() {
		return nil, fmt.Errorf("internal error: result not regular")
	}
	if err := inst.ValidateLayout(l); err != nil {
		return nil, fmt.Errorf("internal error: regularized layout invalid: %w", err)
	}
	return l, nil
}

// Fleet-scale candidate bound: when a problem reaches this many
// object-target pairs (the same threshold at which the transfer search's
// candidate pruning auto-engages; the paper's largest study, 160 x 40,
// stays three orders of magnitude below it), candidate stripe widths are
// capped at regularizeMaxWidth instead of ranging over all M targets.
const (
	regularizeAutoPairs = 1 << 18
	regularizeMaxWidth  = 64
)

// consistentCandidates returns the regular rows consistent with the
// solver's row: for k = 1..maxWidth, the k targets with the largest
// fractions (ties broken by index, as footnote 1 of the paper prescribes)
// receive 1/k each.
func consistentCandidates(row []float64, maxWidth int) [][]float64 {
	m := len(row)
	idx := make([]int, m)
	for j := range idx {
		idx[j] = j
	}
	sort.SliceStable(idx, func(a, b int) bool { return row[idx[a]] > row[idx[b]] })

	out := make([][]float64, 0, maxWidth)
	for k := 1; k <= maxWidth; k++ {
		out = append(out, layout.RegularRow(m, idx[:k]))
	}
	return out
}

// balancingCandidates returns the regular rows that place the object on
// the k least-utilized targets, for k = 1..maxWidth.
func balancingCandidates(utils []float64, maxWidth int) [][]float64 {
	m := len(utils)
	idx := make([]int, m)
	for j := range idx {
		idx[j] = j
	}
	sort.SliceStable(idx, func(a, b int) bool { return utils[idx[a]] < utils[idx[b]] })

	out := make([][]float64, 0, maxWidth)
	for k := 1; k <= maxWidth; k++ {
		out = append(out, layout.RegularRow(m, idx[:k]))
	}
	return out
}

// constraintsOK checks whether replacing object i's row with cand respects
// the instance's administrative constraints against the current layout.
func constraintsOK(inst *layout.Instance, l *layout.Layout, i int, cand []float64) bool {
	c := inst.Constraints
	if c == nil {
		return true
	}
	partners := c.SeparatedFrom(i)
	for j, v := range cand {
		if v <= layout.Epsilon {
			continue
		}
		if !c.Permits(i, j) {
			return false
		}
		for _, k := range partners {
			if l.At(k, j) > layout.Epsilon {
				return false
			}
		}
	}
	return true
}

// capacityOK checks whether replacing object i's row with cand keeps every
// target within capacity.
func capacityOK(tb *targetBytes, i int, cand []float64, caps []int64) bool {
	size := float64(tb.sizes[i])
	for j := range cand {
		delta := (cand[j] - tb.l.At(i, j)) * size
		if delta <= 0 {
			continue
		}
		if tb.at(j)+delta > float64(caps[j])*(1+1e-12) {
			return false
		}
	}
	return true
}

// targetBytes memoizes Layout.TargetBytes per target for a layout whose rows
// change only through setRow. A target's bytes change only when some
// object's cell on it does, so setRow marks exactly those targets stale and
// at recomputes a stale target with the same TargetBytes call: every
// capacity comparison sees the float a fresh column sum gives, while an
// unchanged target costs O(1) instead of an O(N) strided scan of the layout.
type targetBytes struct {
	l     *layout.Layout
	sizes []int64
	bytes []float64
	stale []bool
}

func newTargetBytes(l *layout.Layout, sizes []int64) *targetBytes {
	tb := &targetBytes{l: l, sizes: sizes, bytes: make([]float64, l.M), stale: make([]bool, l.M)}
	for j := range tb.stale {
		tb.stale[j] = true
	}
	return tb
}

// at returns the bytes assigned to target j.
func (tb *targetBytes) at(j int) float64 {
	if tb.stale[j] {
		tb.bytes[j] = tb.l.TargetBytes(j, tb.sizes)
		tb.stale[j] = false
	}
	return tb.bytes[j]
}

// setRow replaces object i's row through inc, the kernel bound to tb's
// layout, and marks stale every target whose cell changed.
func (tb *targetBytes) setRow(inc *layout.IncrementalEvaluator, i int, row []float64) {
	for j, v := range row {
		if v != tb.l.At(i, j) {
			tb.stale[j] = true
		}
	}
	inc.SetObjectRow(i, row)
	if setRowHook != nil {
		setRowHook(tb)
	}
}

// setRowHook, when set, is called after every targetBytes.setRow. It lets
// the package's tests check the memo against fresh column sums at every
// commit; it is nil outside them.
var setRowHook func(*targetBytes)

// evalCandidate computes the utilizations and max-utilization objective that
// would result from replacing object i's row with cand, delta-scoring only
// the targets whose workload set changes — no mutate-evaluate-revert round
// trip on the layout.
func evalCandidate(inc *layout.IncrementalEvaluator, utils []float64, i int, oldRow, cand []float64) ([]float64, float64) {
	newUtils := append([]float64(nil), utils...)
	for j := range cand {
		if oldRow[j] != cand[j] {
			newUtils[j] = inc.ScoreObjectFrac(j, i, cand[j])
		}
	}

	obj := 0.0
	for _, u := range newUtils {
		if u > obj {
			obj = u
		}
	}
	return newUtils, obj
}
