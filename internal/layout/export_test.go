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
func (q *IncrementalEvaluator) checkTermCache() error {
	ev := q.ev
	for j := 0; j < q.m; j++ {
		if len(q.om[j]) != len(q.act[j]) {
			return fmt.Errorf("target %d: %d cached terms for %d active entries", j, len(q.om[j]), len(q.act[j]))
		}
		for t, i32 := range q.act[j] {
			i := int(i32)
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
