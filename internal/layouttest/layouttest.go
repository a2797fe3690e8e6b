// Package layouttest provides hand-authored cost models and layout problem
// instances shared by the tests of the solver and advisor packages. The
// models are analytic stand-ins with the same qualitative shape as
// calibrated ones (cheap sequential access collapsing under contention,
// expensive flat random access), which keeps solver tests fast and their
// expected outcomes easy to reason about.
package layouttest

import (
	"fmt"
	"math/rand"

	"dblayout/internal/costmodel"
	"dblayout/internal/layout"
	"dblayout/internal/rome"
)

// DiskModel returns a disk-like cost model: random requests cost ~5 ms,
// sequential ~0.3 ms with the advantage collapsing around contention 2.
func DiskModel() *costmodel.Model {
	sizes := []float64{4096, 131072}
	runs := []float64{1, 64}
	mk := func(scale float64) costmodel.Table {
		t := costmodel.Table{Sizes: sizes, RunCounts: runs}
		t.Curves = make([][]costmodel.Curve, len(sizes))
		for si := range sizes {
			t.Curves[si] = make([]costmodel.Curve, len(runs))
			xfer := scale * sizes[si] / 65536
			for ri := range runs {
				if ri == 0 {
					t.Curves[si][ri] = costmodel.Curve{
						Contention: []float64{0, 2, 8},
						Cost:       []float64{5e-3 + xfer, 4.6e-3 + xfer, 4.2e-3 + xfer},
					}
				} else {
					t.Curves[si][ri] = costmodel.Curve{
						Contention: []float64{0, 1, 2, 8},
						Cost:       []float64{0.3e-3 + xfer, 1.5e-3 + xfer, 4.5e-3 + xfer, 4.8e-3 + xfer},
					}
				}
			}
		}
		return t
	}
	m := &costmodel.Model{Target: "test-disk", Read: mk(0.9e-3), Write: mk(1.1e-3)}
	m.Prepare()
	return m
}

// SSDModel returns a flat fast model (no positioning cost, no interference
// sensitivity).
func SSDModel() *costmodel.Model {
	sizes := []float64{4096, 131072}
	runs := []float64{1, 64}
	mk := func(lat float64) costmodel.Table {
		t := costmodel.Table{Sizes: sizes, RunCounts: runs}
		t.Curves = make([][]costmodel.Curve, len(sizes))
		for si := range sizes {
			t.Curves[si] = make([]costmodel.Curve, len(runs))
			cost := lat + 0.4e-3*sizes[si]/65536
			for ri := range runs {
				t.Curves[si][ri] = costmodel.Curve{
					Contention: []float64{0, 8},
					Cost:       []float64{cost, cost},
				}
			}
		}
		return t
	}
	m := &costmodel.Model{Target: "test-ssd", Read: mk(0.2e-3), Write: mk(0.4e-3)}
	m.Prepare()
	return m
}

// Targets builds m identical disk targets with the given capacity.
func Targets(m int, capacity int64) []*layout.Target {
	model := DiskModel()
	ts := make([]*layout.Target, m)
	for j := range ts {
		ts[j] = &layout.Target{Name: fmt.Sprintf("disk%d", j), Capacity: capacity, Model: model}
	}
	return ts
}

// Instance builds the standard small test problem: two hot, heavily
// overlapping sequential tables, a warm random index, and a cold object, on
// m identical 20 GB disk targets.
func Instance(m int) *layout.Instance {
	ws := []*rome.Workload{
		{Name: "T1", ReadSize: 131072, ReadRate: 300, RunCount: 64, Overlap: []float64{1, 0.9, 0.5, 0.1}},
		{Name: "T2", ReadSize: 131072, ReadRate: 200, RunCount: 64, Overlap: []float64{0.9, 1, 0.5, 0.1}},
		{Name: "IX", ReadSize: 8192, ReadRate: 120, WriteSize: 8192, WriteRate: 30, RunCount: 1, Overlap: []float64{0.5, 0.5, 1, 0.1}},
		{Name: "COLD", ReadSize: 8192, ReadRate: 2, RunCount: 1, Overlap: []float64{0.1, 0.1, 0.1, 1}},
	}
	set, err := rome.NewSet(ws...)
	if err != nil {
		panic(err)
	}
	inst := &layout.Instance{
		Objects: []layout.Object{
			{Name: "T1", Size: 4 << 30, Kind: layout.KindTable},
			{Name: "T2", Size: 2 << 30, Kind: layout.KindTable},
			{Name: "IX", Size: 1 << 30, Kind: layout.KindIndex},
			{Name: "COLD", Size: 1 << 30, Kind: layout.KindTable},
		},
		Targets:   Targets(m, 20<<30),
		Workloads: set,
	}
	if err := inst.Validate(); err != nil {
		panic(err)
	}
	return inst
}

// Fleet builds a deterministic fleet-scale instance: n objects in co-access
// clusters of about ten (one "database" each — only intra-cluster overlaps
// are non-zero, carried sparsely so the instance never materializes an n x n
// matrix), with a skewed hot/warm/cold rate mix, on m alternating disk and
// SSD targets whose capacities leave roughly 60% slack in aggregate. It is
// the fixture behind BenchmarkSolveFleetScale (n=10000, m=1000) and the
// fleet experiments; the same (n, m) always yields the same instance.
func Fleet(n, m int) *layout.Instance {
	const span = 10
	rng := rand.New(rand.NewSource(7))
	ws := make([]*rome.Workload, n)
	objs := make([]layout.Object, n)
	var total int64
	for i := 0; i < n; i++ {
		w := &rome.Workload{
			Name:     fmt.Sprintf("O%d", i),
			ReadSize: 131072, WriteSize: 8192,
			RunCount: float64(1 + rng.Intn(64)),
		}
		switch rng.Intn(10) {
		case 0: // hot
			w.ReadRate = 100 + 400*rng.Float64()
			w.WriteRate = 50 * rng.Float64()
		case 1, 2, 3: // warm
			w.ReadRate = 5 + 50*rng.Float64()
		default: // cold
			w.ReadRate = 2 * rng.Float64()
		}
		ws[i] = w
		size := int64(64+rng.Intn(1984)) << 20
		objs[i] = layout.Object{Name: w.Name, Size: size, Kind: layout.KindTable}
		total += size
	}
	for lo := 0; lo < n; lo += span {
		hi := lo + span
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			for k := i + 1; k < hi; k++ {
				if rng.Intn(5) == 0 {
					continue // not every pair in a database co-runs
				}
				v := 0.05 + 0.9*rng.Float64()
				ws[i].SparseOverlap = append(ws[i].SparseOverlap, rome.OverlapEntry{Index: k, Value: v})
				ws[k].SparseOverlap = append(ws[k].SparseOverlap, rome.OverlapEntry{Index: i, Value: v})
			}
		}
	}
	set, err := rome.NewSet(ws...)
	if err != nil {
		panic(err)
	}
	disk, ssd := DiskModel(), SSDModel()
	capacity := (total*8/5)/int64(m) + 1
	targets := make([]*layout.Target, m)
	for j := range targets {
		model, kind := disk, "disk"
		if j%2 == 1 {
			model, kind = ssd, "ssd"
		}
		targets[j] = &layout.Target{Name: fmt.Sprintf("%s%d", kind, j), Capacity: capacity, Model: model}
	}
	inst := &layout.Instance{Objects: objs, Targets: targets, Workloads: set}
	if err := inst.Validate(); err != nil {
		panic(err)
	}
	return inst
}

// Replicated builds a larger instance by replicating the standard problem's
// workloads r times across m targets, for solver scaling tests.
func Replicated(r, m int) *layout.Instance {
	base := Instance(4)
	set := base.Workloads.Replicate(r)
	objs := make([]layout.Object, 0, len(base.Objects)*r)
	for rep := 0; rep < r; rep++ {
		for _, o := range base.Objects {
			c := o
			if rep > 0 {
				c.Name = fmt.Sprintf("%s#%d", o.Name, rep+1)
			}
			objs = append(objs, c)
		}
	}
	inst := &layout.Instance{
		Objects:   objs,
		Targets:   Targets(m, 1<<40),
		Workloads: set,
	}
	if err := inst.Validate(); err != nil {
		panic(err)
	}
	return inst
}
