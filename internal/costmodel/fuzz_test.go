package costmodel

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// fuzzTable generates a valid table from seed: ns geometric-ish sizes, nr
// run counts and, per cell, a curve of up to four contention points, every
// axis strictly increasing and every cost positive. The result is an
// unprepared literal.
func fuzzTable(seed int64, ns, nr int) Table {
	rng := rand.New(rand.NewSource(seed))
	axis := func(n int, start float64) []float64 {
		a := make([]float64, n)
		v := start * (1 + rng.Float64())
		for i := range a {
			a[i] = v
			v *= 1.2 + 3*rng.Float64()
		}
		return a
	}
	t := Table{Sizes: axis(ns, 512), RunCounts: axis(nr, 1)}
	t.Curves = make([][]Curve, ns)
	for si := range t.Curves {
		t.Curves[si] = make([]Curve, nr)
		for ri := range t.Curves[si] {
			k := 1 + rng.Intn(4)
			c := Curve{Contention: make([]float64, k), Cost: make([]float64, k)}
			chi := rng.Float64()
			for p := 0; p < k; p++ {
				c.Contention[p] = chi
				c.Cost[p] = 1e-4 + 1e-2*rng.Float64()
				chi += 0.1 + 4*rng.Float64()
			}
			t.Curves[si][ri] = c
		}
	}
	return t
}

// fuzzPoint picks a lookup coordinate on axis: mode 0 lies inside the range,
// 1 below it (clamped), 2 above it (clamped), 3 exactly on an axis point.
// frac in [0, 1) positions it.
func fuzzPoint(axis []float64, mode uint8, frac float64) float64 {
	lo, hi := axis[0], axis[len(axis)-1]
	switch mode % 4 {
	case 0:
		return lo * math.Pow(hi/lo, frac)
	case 1:
		return lo * (0.01 + 0.99*frac)
	case 2:
		return hi * (1 + 10*frac)
	default:
		return axis[int(frac*float64(len(axis)))]
	}
}

// refLookup is the reference lookup: the same interpolation written out
// with sort.SearchFloat64s and the log of both bracketing axis points taken
// per call. Precomputed logs and the inline search must reproduce it bit for
// bit, or the advisor's layouts would change.
func refLookup(t *Table, size, runCount, chi float64) float64 {
	br := func(axis []float64, v float64) (int, int, float64) {
		n := len(axis)
		if v <= axis[0] {
			return 0, 0, 0
		}
		if v >= axis[n-1] {
			return n - 1, n - 1, 0
		}
		i := sort.SearchFloat64s(axis, v)
		lo, hi := axis[i-1], axis[i]
		f := (math.Log(v) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
		return i - 1, i, f
	}
	at := func(c *Curve) float64 {
		n := len(c.Contention)
		if chi <= c.Contention[0] {
			return c.Cost[0]
		}
		if chi >= c.Contention[n-1] {
			return c.Cost[n-1]
		}
		i := sort.SearchFloat64s(c.Contention, chi)
		lo, hi := c.Contention[i-1], c.Contention[i]
		f := (chi - lo) / (hi - lo)
		return c.Cost[i-1]*(1-f) + c.Cost[i]*f
	}
	s0, s1, sf := br(t.Sizes, size)
	r0, r1, rf := br(t.RunCounts, runCount)
	c00 := at(&t.Curves[s0][r0])
	c01 := at(&t.Curves[s0][r1])
	c10 := at(&t.Curves[s1][r0])
	c11 := at(&t.Curves[s1][r1])
	low := c00*(1-rf) + c01*rf
	high := c10*(1-rf) + c11*rf
	return low*(1-sf) + high*sf
}

// FuzzTableLookup checks that precomputing the log axes changes no lookup:
// a prepared table, the same table as an unprepared literal, the prepared
// model after a Save→Load round trip, and the pre-change reference lookup
// all return bit-identical costs, for in-range, clamped and exact-axis
// sizes and run counts. The two-step path, Cell(size, run).At(chi), must
// give the same float on prepared and unprepared tables alike: the
// incremental kernel prices from cached cells and relies on it. modes packs the size mode (low two bits) and the
// run-count mode (next two); see fuzzPoint.
func FuzzTableLookup(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(8), uint8(0), uint32(1<<31), uint32(1<<30), uint32(3<<30))
	f.Add(int64(2), uint8(2), uint8(3), uint8(1|1<<2), uint32(7), uint32(9), uint32(0))
	f.Add(int64(3), uint8(4), uint8(4), uint8(2|2<<2), uint32(1<<31), uint32(1<<31), uint32(^uint32(0)))
	f.Add(int64(4), uint8(6), uint8(8), uint8(3|3<<2), uint32(5<<28), uint32(11<<27), uint32(1<<29))
	f.Add(int64(5), uint8(1), uint8(1), uint8(3|0<<2), uint32(0), uint32(1<<31), uint32(1<<31))
	f.Add(int64(6), uint8(3), uint8(5), uint8(0|3<<2), uint32(12345), uint32(3<<30), uint32(1<<28))
	f.Fuzz(func(t *testing.T, seed int64, ns, nr, modes uint8, x, y, z uint32) {
		nS, nR := 1+int(ns%8), 1+int(nr%9)
		lit := fuzzTable(seed, nS, nR)
		m := &Model{Target: "fuzz", Read: fuzzTable(seed, nS, nR), Write: fuzzTable(seed, nS, nR)}
		if err := m.Valid(); err != nil {
			t.Fatalf("generated an invalid table: %v", err)
		}
		m.Prepare()
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}

		const scale = 1 << 32
		size := fuzzPoint(lit.Sizes, modes, float64(x)/scale)
		run := fuzzPoint(lit.RunCounts, modes>>2, float64(y)/scale)
		maxChi := 0.0
		for _, row := range lit.Curves {
			for _, c := range row {
				maxChi = math.Max(maxChi, c.Contention[len(c.Contention)-1])
			}
		}
		chi := -1 + (maxChi+2)*float64(z)/scale

		want := refLookup(&lit, size, run, chi)
		litCell := lit.Cell(size, run)
		readCell := m.Read.Cell(size, run)
		writeCell := m.Cell(true, size, run)
		loadedCell := loaded.Cell(false, size, run)
		for _, got := range []struct {
			name string
			v    float64
		}{
			{"unprepared literal", lit.Lookup(size, run, chi)},
			{"prepared", m.Read.Lookup(size, run, chi)},
			{"prepared write", m.Cost(true, size, run, chi)},
			{"loaded", loaded.Cost(false, size, run, chi)},
			{"unprepared literal cell", litCell.At(chi)},
			{"prepared cell", readCell.At(chi)},
			{"prepared write cell", writeCell.At(chi)},
			{"loaded cell", loadedCell.At(chi)},
		} {
			if math.Float64bits(got.v) != math.Float64bits(want) {
				t.Fatalf("%s: Lookup(%g, %g, %g) = %.17g, reference %.17g",
					got.name, size, run, chi, got.v, want)
			}
		}
	})
}
