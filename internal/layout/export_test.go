package layout

import (
	"fmt"
	"math"
)

// checkTermCache recomputes every cached mu_ij of the kernel from scratch —
// the active entry's fraction, request rate and cached contention sum fed
// through objTerm — and reports the first entry whose cached value is not
// bit-identical to the fresh one. Non-partner entries are summed from this
// cache on every probe, so a stale entry would silently skew every score.
// On targets with interpolation cells it also rebuilds every entry's read
// and write cells from the layout and reports the first cached cell that
// differs: partners are repriced from these cells, so a stale cell would
// skew every probe that moves one of their co-access partners.
func (q *IncrementalEvaluator) checkTermCache() error {
	ev := q.ev
	for j := 0; j < q.m; j++ {
		if len(q.om[j]) != len(q.act[j]) {
			return fmt.Errorf("target %d: %d cached terms for %d active entries", j, len(q.om[j]), len(q.act[j]))
		}
		cm, isCell := ev.inst.Targets[j].Model.(cellModel)
		if isCell != (q.cm[j] != nil) {
			return fmt.Errorf("target %d: model exposes cells = %v, kernel uses cells = %v", j, isCell, q.cm[j] != nil)
		}
		if isCell && len(q.cel[j]) != len(q.act[j]) {
			return fmt.Errorf("target %d: %d cached cells for %d active entries", j, len(q.cel[j]), len(q.act[j]))
		}
		for t, i32 := range q.act[j] {
			i := int(i32)
			if isCell {
				var want entryCells
				if lij := q.l.At(i, j); lij > Epsilon && ev.totalRate[i] > 0 {
					run := ev.runCountOn(i, lij)
					if ev.readRate[i]*lij > 0 {
						want.r = cm.Cell(false, ev.readSize[i], run)
					}
					if ev.writeRate[i]*lij > 0 {
						want.w = cm.Cell(true, ev.writeSize[i], run)
					}
				}
				if q.cel[j][t] != want {
					return fmt.Errorf("target %d, object %d: cached cells %+v, fresh %+v", j, i, q.cel[j][t], want)
				}
			}
			var want float64
			if lij := q.l.At(i, j); lij > Epsilon && ev.totalRate[i] > 0 {
				chi := q.con[j][t]/(ev.totalRate[i]*lij) + ev.selfChi[i]
				want = q.objTerm(j, i, lij, chi)
			}
			if got := q.om[j][t]; math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("target %d, object %d: cached mu_ij = %.17g, fresh = %.17g", j, i, got, want)
			}
		}
	}
	return nil
}
