package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"dblayout"
	"dblayout/internal/control"
	"dblayout/internal/costmodel"
	"dblayout/internal/layout"
)

// docFile is a tenant's problem document, the JSON body of
// PUT /v1/tenants/{id}. It is the advisor CLI's problem-file schema with one
// addition: a target may carry an inline cost model ("model_json", the JSON
// written by cmd/calibrate or SaveModel) instead of a built-in device type,
// which lets a client supply calibrated models without the daemon touching
// the filesystem ("@file" references are rejected for that reason).
type docFile struct {
	Objects []struct {
		Name   string `json:"name"`
		SizeMB int64  `json:"size_mb"`
		Kind   string `json:"kind"`
	} `json:"objects"`
	Targets []struct {
		Name       string          `json:"name"`
		CapacityMB int64           `json:"capacity_mb"`
		Model      string          `json:"model"`
		ModelJSON  json.RawMessage `json:"model_json"`
	} `json:"targets"`
	Workloads *dblayout.WorkloadSet `json:"workloads"`
	// Current optionally gives the layout the tenant's data occupies today
	// (one row of per-target fractions per object, default SEE);
	// migrations start from it.
	Current [][]float64 `json:"current"`
}

// tenantState is one immutable snapshot of a tenant: the problem, the
// current layout, and the version that stamps every answer computed from it.
// Handlers grab the snapshot pointer once and work from it; uploads build a
// fresh state and swap the pointer, so a request admitted before an upload
// completes against the world it started in (snapshot isolation).
type tenantState struct {
	version int64
	problem dblayout.Problem
	current *layout.Layout
	names   []string
	sizes   []int64
	caps    []int64
	raw     []byte // the problem document as uploaded (persisted verbatim)
}

// fitEntry is the cached result of fitting workloads from a trace: the
// digest of the trace bytes and the fitted set. A re-upload of the same
// trace is a cache hit; a workload upload explicitly invalidates the entry.
type fitEntry struct {
	sum [sha256.Size]byte
	set *dblayout.WorkloadSet
}

// adviseKey identifies one advise computation: the state version it ran
// against plus the request parameters that change the answer. Keying on the
// version makes invalidation structural — any upload bumps the version, so
// stale entries can never be returned.
type adviseKey struct {
	version int64
	seed    int64
	budget  time.Duration
	skipReg bool
}

// adviseEntry is a cached (or in-flight) advise result. The first request
// for a key computes; concurrent duplicates block on ready and share the
// result (single-flight), so a thundering herd costs one solve.
type adviseEntry struct {
	ready chan struct{}
	rec   *dblayout.Recommendation
	err   error
}

// tenant is one isolated tenant: its state snapshot, its caches, and its
// migration slot. Each cache has its own lock; none is ever held while
// another tenant's locks are, and the state lock is never held across a
// solve.
type tenant struct {
	id string

	mu      sync.Mutex
	state   *tenantState // nil until the first problem upload
	version int64        // monotonic; stamps each installed state

	modelMu sync.Mutex
	models  map[string]*costmodel.Model // calibration-table cache

	fitMu sync.Mutex
	fit   *fitEntry

	adviseMu sync.Mutex
	advise   map[adviseKey]*adviseEntry

	migMu sync.Mutex
	run   *control.Runner // the journal's epoch runner; nil until a journal exists
	sim   *control.SimIO  // the simulation run's engines execute against
	jf    *os.File        // the journal file run appends to
	mig   *migration      // the latest migration, for status
}

func newTenant(id string) *tenant {
	return &tenant{
		id:     id,
		models: map[string]*costmodel.Model{},
		advise: map[adviseKey]*adviseEntry{},
	}
}

// snapshot returns the current state pointer (nil when no problem has been
// uploaded yet). The returned state is immutable.
func (t *tenant) snapshot() *tenantState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// install swaps in a new state snapshot, stamps it with the next version,
// and drops the advise cache (entries are version-keyed, so this is memory
// hygiene, not correctness).
func (t *tenant) install(st *tenantState) *tenantState {
	t.mu.Lock()
	t.version++
	st.version = t.version
	t.state = st
	t.mu.Unlock()

	t.adviseMu.Lock()
	t.advise = map[adviseKey]*adviseEntry{}
	t.adviseMu.Unlock()
	return st
}

// resetJournal drops the tenant's epoch runner and latest migration and
// closes the journal file. Caller holds t.migMu.
func (t *tenant) resetJournal() {
	if t.jf != nil {
		// Every commit record is already fsynced; a failed close can only
		// lose unsynced progress marks, which cost a recopy on resume.
		_ = t.jf.Close()
	}
	t.run, t.sim, t.jf, t.mig = nil, nil, nil, nil
}

// migrating reports whether a migration epoch is running. Caller holds
// t.migMu.
func (t *tenant) migrating() bool { return t.run != nil && t.run.Migrating() }

// epochs counts the migration epochs the tenant's journal has closed.
// Caller holds t.migMu.
func (t *tenant) epochs() int {
	switch {
	case t.run == nil:
		return 0
	case t.run.Migrating():
		return t.run.Epoch() - 1
	}
	return t.run.Epoch()
}

// withLayout clones st with a new current layout — the post-migration state.
func (st *tenantState) withLayout(l *layout.Layout) *tenantState {
	ns := *st
	ns.current = l.Clone()
	return &ns
}

// withWorkloads clones st with a replacement workload set.
func (st *tenantState) withWorkloads(set *dblayout.WorkloadSet) (*tenantState, error) {
	ns := *st
	ns.problem.Workloads = set
	if err := instanceFor(&ns).Validate(); err != nil {
		return nil, err
	}
	return &ns, nil
}

func instanceFor(st *tenantState) *layout.Instance {
	return &layout.Instance{
		Objects:   st.problem.Objects,
		Targets:   st.problem.Targets,
		Workloads: st.problem.Workloads,
	}
}

// model resolves a target's cost model. Inline models are decoded from the
// document; built-in device types ("disk15k", "disk7200", "ssd") are
// calibrated once per tenant and cached — calibration runs a storage
// simulation sweep, far too expensive to repeat per request.
func (t *tenant) model(s *Server, ref string, inline json.RawMessage) (*costmodel.Model, error) {
	if len(inline) > 0 {
		m, err := costmodel.Load(bytes.NewReader(inline))
		if err != nil {
			return nil, fmt.Errorf("model_json: %w", err)
		}
		return m, nil
	}
	if strings.HasPrefix(ref, "@") {
		return nil, fmt.Errorf("model %q: @file references are not served; upload the model inline as model_json", ref)
	}
	name := ref
	if name == "" {
		name = "disk15k"
	}
	t.modelMu.Lock()
	defer t.modelMu.Unlock()
	if m, ok := t.models[name]; ok {
		s.mCalHits.Inc()
		return m, nil
	}
	factory, err := dblayout.DeviceFactory(name)
	if err != nil {
		return nil, fmt.Errorf("unknown model %q (want disk15k, disk7200, ssd, or model_json)", name)
	}
	grid := costmodel.DefaultGrid()
	if s.opt.FastCalibration {
		grid = costmodel.FastGrid()
	}
	s.mCalibrations.Inc()
	m := costmodel.Calibrate(name, factory, grid)
	t.models[name] = m
	return m, nil
}

// buildState parses and validates a problem document into a fresh state
// snapshot (unversioned; install stamps it).
func (t *tenant) buildState(s *Server, raw []byte) (*tenantState, error) {
	var doc docFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("parsing problem document: %w", err)
	}
	if len(doc.Objects) == 0 || len(doc.Targets) == 0 {
		return nil, fmt.Errorf("problem document needs at least one object and one target")
	}
	st := &tenantState{raw: raw}
	for _, o := range doc.Objects {
		kind, err := dblayout.ParseObjectKind(o.Kind)
		if err != nil {
			return nil, err
		}
		if o.SizeMB <= 0 {
			return nil, fmt.Errorf("object %q: size_mb must be positive", o.Name)
		}
		st.problem.Objects = append(st.problem.Objects, dblayout.Object{
			Name: o.Name, Size: o.SizeMB << 20, Kind: kind,
		})
		st.names = append(st.names, o.Name)
		st.sizes = append(st.sizes, o.SizeMB<<20)
	}
	for _, tg := range doc.Targets {
		m, err := t.model(s, tg.Model, tg.ModelJSON)
		if err != nil {
			return nil, fmt.Errorf("target %q: %w", tg.Name, err)
		}
		st.problem.Targets = append(st.problem.Targets, &layout.Target{
			Name: tg.Name, Capacity: tg.CapacityMB << 20, Model: m,
		})
		st.caps = append(st.caps, tg.CapacityMB<<20)
	}
	st.problem.Workloads = doc.Workloads
	if err := instanceFor(st).Validate(); err != nil {
		return nil, err
	}
	cur, err := dblayout.LayoutFromRows(doc.Current, len(st.names), len(st.caps))
	if err != nil {
		return nil, err
	}
	if err := cur.CheckCapacity(st.sizes, st.caps); err != nil {
		return nil, fmt.Errorf("current layout: %w", err)
	}
	st.current = cur
	return st, nil
}

// traceDigest identifies uploaded trace content for the fit cache.
func traceDigest(b []byte) [sha256.Size]byte { return sha256.Sum256(b) }
