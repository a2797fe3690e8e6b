package main

import (
	"bufio"
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dblayout"
	"dblayout/internal/layout"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public surface it drives (never inside the program).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = root
	Req    int64   `json:"req"`    // request id shared by a request's spans
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the ledger was created
	End    float64 `json:"end_s"`
}

// ledger keeps spans in memory; they are written out once, at the end of the
// run, so recording costs a lock and an append.
type ledger struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newLedger() *ledger { return &ledger{origin: time.Now()} }

// add records a finished span and returns its id.
func (l *ledger) add(parent int, req int64, name string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(l.origin).Seconds(), End: end.Sub(l.origin).Seconds(),
	})
	return id
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children's union covers.
func (l *ledger) selfTimes() map[string]float64 {
	children := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range l.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// write dumps the spans as JSON lines.
func (l *ledger) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countingModel wraps a target's cost model in the traced run: it counts
// Cost calls and keeps every 64th (size, run count, chi) tuple so the lookup
// cost can be replayed over the workload's own arguments afterwards.
type countingModel struct {
	inner layout.CostModel
	calls *atomic.Int64
	rec   *tupleLog
}

type tuple struct {
	model           layout.CostModel
	write           bool
	size, runs, chi float64
}

type tupleLog struct {
	mu     sync.Mutex
	tuples []tuple
}

const (
	tupleStride = 64
	maxTuples   = 1 << 18
)

func (m countingModel) Cost(write bool, size, runCount, chi float64) float64 {
	if n := m.calls.Add(1); n%tupleStride == 0 {
		m.rec.mu.Lock()
		if len(m.rec.tuples) < maxTuples {
			m.rec.tuples = append(m.rec.tuples, tuple{m.inner, write, size, runCount, chi})
		}
		m.rec.mu.Unlock()
	}
	return m.inner.Cost(write, size, runCount, chi)
}

// phaseLog collects the advisor's "advisor phase" slog spans.
type phaseLog struct {
	mu     sync.Mutex
	phases []phase
}

type phase struct {
	name     string
	end      time.Time
	duration time.Duration
	polish   time.Duration
	evals    int64
}

func (p *phaseLog) Enabled(context.Context, slog.Level) bool { return true }
func (p *phaseLog) WithAttrs([]slog.Attr) slog.Handler       { return p }
func (p *phaseLog) WithGroup(string) slog.Handler            { return p }

func (p *phaseLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "advisor phase" {
		return nil
	}
	ph := phase{end: r.Time}
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "phase":
			ph.name = a.Value.String()
		case "duration":
			ph.duration = a.Value.Duration()
		case "polish":
			ph.polish = a.Value.Duration()
		case "evals":
			ph.evals = a.Value.Int64()
		}
		return true
	})
	p.mu.Lock()
	p.phases = append(p.phases, ph)
	p.mu.Unlock()
	return nil
}

// probe is the instrumentation of one traced advise call: the cost-model
// wrapper, the slog phase spans and the solver's per-iteration hook.
type probe struct {
	lookups  atomic.Int64
	tuples   tupleLog
	phases   phaseLog
	iters    int64
	accepted int64
}

// wrapTargets returns copies of the targets whose models count calls.
func (p *probe) wrapTargets(ts []*layout.Target) []*layout.Target {
	out := make([]*layout.Target, len(ts))
	for j, t := range ts {
		c := *t
		c.Model = countingModel{inner: t.Model, calls: &p.lookups, rec: &p.tuples}
		out[j] = &c
	}
	return out
}

func (p *probe) logger() *slog.Logger { return slog.New(&p.phases) }

// hook is the solver Trace hook; the advisor never calls it concurrently.
func (p *probe) hook(ev dblayout.TraceEvent) {
	p.iters++
	if ev.Accepted {
		p.accepted++
	}
}

// layerTotals sums traced calls' phase spans and counts.
type layerTotals struct {
	wall, solve, regularize, polish, validate time.Duration
	solves, evals, iters, accepted, lookups   int64
}

func (t *layerTotals) addProbe(p *probe, wall time.Duration) {
	t.wall += wall
	for _, ph := range p.phases.phases {
		switch ph.name {
		case "solve":
			t.solve += ph.duration
			t.solves++
			t.evals += ph.evals
		case "regularize":
			t.regularize += ph.duration
			t.polish += ph.polish
		case "validate":
			t.validate += ph.duration
		}
	}
	t.iters += p.iters
	t.accepted += p.accepted
	t.lookups += p.lookups.Load()
}

// spanPhases records the phase spans of a traced call as children of the
// call's span, reconstructing each start from its logged end and duration.
func (p *probe) spanPhases(l *ledger, parent int, req int64) {
	names := map[string]string{
		"seed": "layout.seed", "solve": "nlp.solve",
		"regularize": "core.regularize", "validate": "layout.validate",
	}
	for _, ph := range p.phases.phases {
		if n, ok := names[ph.name]; ok && ph.duration > 0 {
			l.add(parent, req, n, ph.end.Add(-ph.duration), ph.end)
		}
	}
}

// lookupNS replays the recorded tuples through the unwrapped models and
// returns the mean nanoseconds per Cost call.
func lookupNS(tuples []tuple) float64 {
	if len(tuples) == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		for _, t := range tuples {
			lookupSink += t.model.Cost(t.write, t.size, t.runs, t.chi)
		}
		calls += len(tuples)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// lookupSink keeps the replayed calls' results alive.
var lookupSink float64
