package core

import (
	"context"
	"fmt"

	"dblayout/internal/layout"
	"dblayout/internal/nlp"
)

// PlaceIncremental places the listed objects into an existing layout without
// moving any other object's data — the dynamic-allocation mode the paper's
// conclusion sketches for NetApp FlexVol-style systems, where capacity is
// assigned as volumes grow rather than in an up-front configuration step.
//
// The instance must describe all objects (existing and new); current must be
// a valid layout of the existing objects whose rows for the new objects are
// ignored. The returned layout keeps every existing row bit-identical,
// places the new objects greedily (least utilized permitted target first)
// and then locally optimizes only the new rows with the transfer search.
// The result is regular if `current` is regular.
func PlaceIncremental(inst *layout.Instance, current *layout.Layout, newObjects []int, opt nlp.Options) (*layout.Layout, error) {
	return PlaceIncrementalContext(context.Background(), inst, current, newObjects, opt)
}

// PlaceIncrementalContext is PlaceIncremental under a context. An
// already-cancelled context returns ctx.Err() without placing anything; a
// cancellation mid-optimization returns (nil, ctx.Err()). When opt.Budget is
// set and runs out, the local optimization stops early and the best-effort
// placement found so far is returned with a nil error — the greedy seeding
// already guarantees a valid layout. Cost-model panics and non-finite costs
// surface as an error wrapping ErrModelFailure.
func PlaceIncrementalContext(ctx context.Context, inst *layout.Instance, current *layout.Layout, newObjects []int, opt nlp.Options) (final *layout.Layout, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The evaluator is the only black-box code on this path; a broken cost
	// model must come back as a classified error, not a process panic.
	defer func() {
		if p := recover(); p != nil {
			final, err = nil, layout.AsModelFailure(p)
		}
	}()
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if current.N != inst.N() || current.M != inst.M() {
		return nil, fmt.Errorf("core: %dx%d layout for a %dx%d instance", current.N, current.M, inst.N(), inst.M())
	}
	if len(newObjects) == 0 {
		return nil, fmt.Errorf("core: no objects to place")
	}
	isNew := make(map[int]bool, len(newObjects))
	for _, i := range newObjects {
		if i < 0 || i >= inst.N() {
			return nil, fmt.Errorf("core: object index %d outside [0,%d)", i, inst.N())
		}
		isNew[i] = true
	}

	ev := layout.NewEvaluator(inst)
	l := current.Clone()
	for i := range isNew {
		l.SetRow(i, make([]float64, l.M))
	}

	// Greedy seeding: hottest new object first, onto the least-utilized
	// permitted target with room.
	order := append([]int(nil), newObjects...)
	ws := inst.Workloads.Workloads
	for a := 0; a < len(order); a++ {
		for b := a + 1; b < len(order); b++ {
			if ws[order[b]].TotalRate() > ws[order[a]].TotalRate() {
				order[a], order[b] = order[b], order[a]
			}
		}
	}
	sizes := inst.Sizes()
	caps := inst.Capacities()
	// One incremental kernel prices the whole greedy pass: each placement
	// reads cached utilizations and updates only the receiving target,
	// instead of re-evaluating every target per object. The byte memo
	// likewise rescans only the target that received the last object.
	inc := ev.NewIncremental(l)
	tb := newTargetBytes(l, sizes)
	for _, i := range order {
		best := -1
		for j := 0; j < l.M; j++ {
			if !inst.Constraints.Permits(i, j) {
				continue
			}
			if tb.at(j)+float64(sizes[i]) > float64(caps[j]) {
				continue
			}
			if sharesSeparatedRow(inst.Constraints, l, i, j) {
				continue
			}
			if best < 0 || inc.Utilization(j) < inc.Utilization(best) {
				best = j
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("core: no target can accept new object %q without moving existing data",
				inst.Objects[i].Name)
		}
		row := make([]float64, l.M)
		row[best] = 1
		tb.setRow(inc, i, row)
	}

	// Local optimization over the new rows only.
	opt.MovableObjects = newObjects
	res := nlp.TransferSearch(ctx, ev, inst, l, opt)
	if isContextErr(res.Stop) {
		return nil, res.Stop
	}

	// The transfer search may leave non-regular rows; restore regularity
	// for the new objects if the base layout was regular.
	final = res.Layout
	if current.IsRegular() && !final.IsRegular() {
		reg, err := Regularize(ev, inst, final)
		if err != nil {
			return nil, err
		}
		// Regularization must not have touched existing rows (they
		// were already regular, so it skips them), but verify.
		for i := 0; i < final.N; i++ {
			if isNew[i] {
				continue
			}
			for j := 0; j < final.M; j++ {
				if reg.At(i, j) != current.At(i, j) {
					return nil, fmt.Errorf("core: internal error: incremental placement moved existing object %d", i)
				}
			}
		}
		final = reg
	}
	if err := inst.ValidateLayout(final); err != nil {
		return nil, err
	}
	return final, nil
}

// sharesSeparatedRow reports whether target j already holds an object that
// must be separated from i.
func sharesSeparatedRow(c *layout.Constraints, l *layout.Layout, i, j int) bool {
	for _, k := range c.SeparatedFrom(i) {
		if l.At(k, j) > layout.Epsilon {
			return true
		}
	}
	return false
}
