// Package costmodel implements the paper's black-box storage target models.
//
// A target model predicts the per-request service cost on a storage target as
// a function of three workload parameters: request size, run count
// (sequentiality), and the contention factor (temporally-correlated competing
// requests per own request, Eq. 2 of the paper). Following Sec. 5.2.2, the
// models are not analytic: they are tables of measured costs obtained by
// subjecting the target to calibration workloads with known parameters, with
// interpolation between calibration points at lookup time.
//
// Lookups interpolate the size and run-count axes in log space. The log of
// every axis point is computed once, when a table is finished: Calibrate and
// Load prepare their models, and Model.Prepare does the same for a model
// built as a literal. An unprepared table computes the same logs on demand,
// so a lookup returns the same float either way; preparing only saves the
// math.Log calls.
//
// A lookup is two steps. Table.Cell brackets the size and run-count axes
// and returns the four surrounding contention curves with their weights;
// Cell.At interpolates those curves at a contention factor. Lookup is
// Cell(size, run).At(chi), so a caller that holds a Cell gets the same
// float as Lookup without repeating the brackets. The layout package's
// incremental kernel keeps one cell per direction for every object it
// prices, because an object's size and run count on a target change only
// when its fraction there does, while its contention factor changes with
// every move of a co-access partner.
package costmodel

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Curve is the measured cost (seconds per request) as a function of the
// contention factor, for one (request size, run count) calibration cell.
// Contention values are the *measured* contention factors of the calibration
// runs and are strictly increasing.
type Curve struct {
	Contention []float64 `json:"contention"`
	Cost       []float64 `json:"cost"`
}

// At returns the cost at contention chi, linearly interpolating between
// calibration points and clamping beyond the measured range.
func (c *Curve) At(chi float64) float64 {
	n := len(c.Contention)
	if n == 0 {
		return 0
	}
	if chi <= c.Contention[0] {
		return c.Cost[0]
	}
	if chi >= c.Contention[n-1] {
		return c.Cost[n-1]
	}
	i := search(c.Contention, chi)
	// c.Contention[i-1] < chi <= c.Contention[i]
	lo, hi := c.Contention[i-1], c.Contention[i]
	f := (chi - lo) / (hi - lo)
	return c.Cost[i-1]*(1-f) + c.Cost[i]*f
}

// Valid reports whether the curve is well-formed.
func (c *Curve) Valid() error {
	if len(c.Contention) == 0 || len(c.Contention) != len(c.Cost) {
		return fmt.Errorf("costmodel: curve with %d contention points, %d costs",
			len(c.Contention), len(c.Cost))
	}
	for i := range c.Contention {
		if i > 0 && c.Contention[i] <= c.Contention[i-1] {
			return fmt.Errorf("costmodel: contention axis not increasing at %d", i)
		}
		if c.Cost[i] <= 0 || math.IsNaN(c.Cost[i]) {
			return fmt.Errorf("costmodel: non-positive cost at %d", i)
		}
	}
	return nil
}

// Table is the full cost model for one request direction (read or write) on
// one target type: a grid of contention curves indexed by request size and
// run count.
type Table struct {
	// Sizes are the calibrated request sizes in bytes, increasing.
	Sizes []float64 `json:"sizes"`
	// RunCounts are the calibrated run counts, increasing.
	RunCounts []float64 `json:"run_counts"`
	// Curves[si][ri] is the contention curve for Sizes[si], RunCounts[ri].
	Curves [][]Curve `json:"curves"`

	// logSizes and logRuns hold math.Log of each Sizes and RunCounts
	// point, filled by Model.Prepare. They are nil on a table that was
	// never prepared; logAt then computes the same values on demand.
	logSizes, logRuns []float64
}

// Valid reports whether the table is well-formed.
func (t *Table) Valid() error {
	if len(t.Sizes) == 0 || len(t.RunCounts) == 0 {
		return fmt.Errorf("costmodel: empty table axes")
	}
	if len(t.Curves) != len(t.Sizes) {
		return fmt.Errorf("costmodel: %d curve rows, want %d", len(t.Curves), len(t.Sizes))
	}
	for si := range t.Curves {
		if len(t.Curves[si]) != len(t.RunCounts) {
			return fmt.Errorf("costmodel: row %d has %d curves, want %d",
				si, len(t.Curves[si]), len(t.RunCounts))
		}
		for ri := range t.Curves[si] {
			if err := t.Curves[si][ri].Valid(); err != nil {
				return fmt.Errorf("cell (%d,%d): %w", si, ri, err)
			}
		}
	}
	for i := 1; i < len(t.Sizes); i++ {
		if t.Sizes[i] <= t.Sizes[i-1] {
			return fmt.Errorf("costmodel: size axis not increasing")
		}
	}
	for i := 1; i < len(t.RunCounts); i++ {
		if t.RunCounts[i] <= t.RunCounts[i-1] {
			return fmt.Errorf("costmodel: run-count axis not increasing")
		}
	}
	return nil
}

func logAxis(axis []float64) []float64 {
	logs := make([]float64, len(axis))
	for i, v := range axis {
		logs[i] = math.Log(v)
	}
	return logs
}

// logAt returns math.Log(axis[i]), from logs when the table was prepared.
func logAt(axis, logs []float64, i int) float64 {
	if logs != nil {
		return logs[i]
	}
	return math.Log(axis[i])
}

// search returns the smallest index i with axis[i] >= v, as
// sort.SearchFloat64s does, without the closure call per probe.
func search(axis []float64, v float64) int {
	lo, hi := 0, len(axis)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if axis[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// bracket returns indices (i, j) and weight f such that axis[i] and axis[j]
// bracket v with interpolation weight f toward j, clamping outside the range.
// Interpolation is performed in log space because both the size and run-count
// axes are geometric; logs holds the axis's precomputed logs, or nil.
func bracket(axis, logs []float64, v float64) (int, int, float64) {
	n := len(axis)
	if v <= axis[0] {
		return 0, 0, 0
	}
	if v >= axis[n-1] {
		return n - 1, n - 1, 0
	}
	i := search(axis, v)
	lo, hi := logAt(axis, logs, i-1), logAt(axis, logs, i)
	f := (math.Log(v) - lo) / (hi - lo)
	return i - 1, i, f
}

// Cell is the interpolation cell of one (request size, run count) point of a
// table: the four calibration curves that bracket it and its log-space
// weights toward the upper size (sf) and run-count (rf) neighbours. Both
// brackets depend only on the size and run count, so a caller that prices
// the same point at many contention factors finds the cell once and calls
// At per factor, with no log and no axis search. A Cell aliases its table's
// curves: the table must not change while the cell is in use.
type Cell struct {
	c00, c01, c10, c11 *Curve
	sf, rf             float64
}

// Cell returns the interpolation cell of the given request size (bytes) and
// run count, clamped to the calibrated ranges as Lookup clamps them.
func (t *Table) Cell(size, runCount float64) Cell {
	s0, s1, sf := bracket(t.Sizes, t.logSizes, size)
	r0, r1, rf := bracket(t.RunCounts, t.logRuns, runCount)
	return Cell{
		c00: &t.Curves[s0][r0], c01: &t.Curves[s0][r1],
		c10: &t.Curves[s1][r0], c11: &t.Curves[s1][r1],
		sf: sf, rf: rf,
	}
}

// At returns the cell's interpolated per-request cost in seconds at
// contention chi: the same float operations, in the same order, as Lookup.
func (c *Cell) At(chi float64) float64 {
	c00 := c.c00.At(chi)
	c01 := c.c01.At(chi)
	c10 := c.c10.At(chi)
	c11 := c.c11.At(chi)
	low := c00*(1-c.rf) + c01*c.rf
	high := c10*(1-c.rf) + c11*c.rf
	return low*(1-c.sf) + high*c.sf
}

// Lookup returns the interpolated per-request cost in seconds for the given
// request size (bytes), run count, and contention factor. Values outside the
// calibrated ranges are clamped to the nearest calibrated point.
func (t *Table) Lookup(size, runCount, chi float64) float64 {
	c := t.Cell(size, runCount)
	return c.At(chi)
}

// Model is the complete per-target-type cost model: one table for reads and
// one for writes, as Sec. 5.2.2 prescribes.
type Model struct {
	// Target names the device type the model was calibrated against.
	Target string `json:"target"`
	Read   Table  `json:"read"`
	Write  Table  `json:"write"`
}

// Cost returns the per-request cost for the given direction and workload
// parameters.
func (m *Model) Cost(write bool, size, runCount, chi float64) float64 {
	if write {
		return m.Write.Lookup(size, runCount, chi)
	}
	return m.Read.Lookup(size, runCount, chi)
}

// Cell returns the interpolation cell of the given direction's table (see
// Table.Cell): Cost(write, size, runCount, chi) equals
// Cell(write, size, runCount).At(chi) bit for bit.
func (m *Model) Cell(write bool, size, runCount float64) Cell {
	if write {
		return m.Write.Cell(size, runCount)
	}
	return m.Read.Cell(size, runCount)
}

// Valid reports whether both tables are well-formed.
func (m *Model) Valid() error {
	if err := m.Read.Valid(); err != nil {
		return fmt.Errorf("read table: %w", err)
	}
	if err := m.Write.Valid(); err != nil {
		return fmt.Errorf("write table: %w", err)
	}
	return nil
}

// Prepare precomputes the log axes of both tables, as Calibrate and Load do,
// so an interpolating bracket calls math.Log once, for the looked-up value,
// instead of four times. Call it once a model built as a literal is complete
// and before it is shared: it writes the model, and its tables' axes must
// not change afterwards.
func (m *Model) Prepare() {
	for _, t := range []*Table{&m.Read, &m.Write} {
		t.logSizes, t.logRuns = logAxis(t.Sizes), logAxis(t.RunCounts)
	}
}

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(m)
}

// Load parses a model saved by Save and validates it.
func Load(r io.Reader) (*Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("costmodel: decoding model: %w", err)
	}
	if err := m.Valid(); err != nil {
		return nil, err
	}
	m.Prepare()
	return &m, nil
}
