package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
	"dblayout/internal/nlp"
)

// tightFleet returns a small layouttest.Fleet instance whose targets share
// only slack times the objects' total bytes, and a random non-regular
// layout of it that spreads each object over one to four targets.
func tightFleet(rng *rand.Rand) (*layout.Instance, *layout.Layout) {
	n, m := 20+rng.Intn(60), 3+rng.Intn(8)
	inst := layouttest.Fleet(n, m)
	var total int64
	for _, o := range inst.Objects {
		total += o.Size
	}
	slack := 1.02 + 0.3*rng.Float64()
	for _, tg := range inst.Targets {
		tg.Capacity = int64(slack*float64(total))/int64(m) + 1
	}
	l := layout.New(n, m)
	for i := 0; i < n; i++ {
		row := make([]float64, m)
		var sum float64
		for _, j := range rng.Perm(m)[:1+rng.Intn(min(4, m))] {
			row[j] = 0.1 + rng.Float64()
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
		l.SetRow(i, row)
	}
	return inst, l
}

// TestTargetBytesMemo checks the regularizer's byte memo at every commit of
// Regularize and PolishRegular on random capacity-tight instances: each
// target the memo holds as fresh must equal a fresh Layout.TargetBytes bit
// for bit, so every capacity comparison sees the float a column sum gives.
func TestTargetBytesMemo(t *testing.T) {
	commits, checked := 0, 0
	setRowHook = func(tb *targetBytes) {
		commits++
		for j := 0; j < tb.l.M; j++ {
			if tb.stale[j] {
				continue
			}
			checked++
			if want := tb.l.TargetBytes(j, tb.sizes); math.Float64bits(tb.bytes[j]) != math.Float64bits(want) {
				t.Fatalf("commit %d: target %d: memoized %.17g bytes, column sum %.17g", commits, j, tb.bytes[j], want)
			}
		}
	}
	defer func() { setRowHook = nil }()

	polished := 0
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst, solved := tightFleet(rng)
		ev := layout.NewEvaluator(inst)
		reg, err := Regularize(ev, inst, solved)
		if err != nil {
			continue // the paper allows failure under tight space
		}
		PolishRegular(ev, inst, reg)
		polished++
	}
	if polished == 0 || commits == 0 || checked == 0 {
		t.Fatalf("nothing checked: %d polished instances, %d commits, %d fresh targets compared", polished, commits, checked)
	}
	t.Logf("%d polished instances, %d commits, %d fresh targets compared", polished, commits, checked)
}

// BenchmarkRegularizeFleetScale regularizes the fleet study's transfer
// solution of layouttest.Fleet(10000, 1000) (the solve runs once, untimed).
// Every candidate row's capacity check reads the byte memo; an O(N) column
// re-scan per check would make one iteration take tens of seconds.
func BenchmarkRegularizeFleetScale(b *testing.B) {
	inst := layouttest.Fleet(10000, 1000)
	ev := layout.NewEvaluator(inst)
	init, err := layout.InitialLayout(inst)
	if err != nil {
		b.Fatal(err)
	}
	res := nlp.TransferSearch(context.Background(), ev, inst, init, nlp.Options{
		Seed: 1, Restarts: nlp.NoRestarts, MaxIters: 256, PruneObjects: 64, PruneTargets: 16,
	})
	if res.Layout == nil {
		b.Fatal("no layout")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Regularize(ev, inst, res.Layout); err != nil {
			b.Fatal(err)
		}
	}
}
