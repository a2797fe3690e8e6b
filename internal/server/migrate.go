package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dblayout"
	"dblayout/internal/control"
	"dblayout/internal/layout"
	"dblayout/internal/migrate"
)

// Migrations run against a deterministic simulated I/O substrate
// (control.SimIO) and journal to a per-tenant write-ahead file in the
// controller journal format, through the same control.Runner the autonomic
// controller uses. The runner owns the epoch lifecycle: cbegin fixes the base
// layout when the journal is created, each migration opens an epoch with
// cplan and the engine's own records interleave while it runs, and a
// coutcome closes it. The daemon's retry policy is one attempt and no
// cooldown, so an aborted epoch closes terminally (coutcome aborted, then
// cfail) and clients replan via /repair.
//
// The daemon keeps the file handling, the clock and HTTP. A restart reads the
// journal, truncates a torn tail, quarantines a journal that does not recover
// (or was written for another problem shape) as .corrupt, and hands the
// checkpoint to Runner.Resume, which settles the open epoch exactly once:
// the engine's journal-before-transition protocol means no step commits
// twice and no committed byte is lost or double-counted.
//
// A pump goroutine per running migration advances the tenant's simulation
// in small slices on a real-time tick, so migrations are genuinely in flight
// from the API's point of view: status polls observe intermediate progress,
// and killing the daemon mid-flight leaves a journal that ends at an
// arbitrary record boundary, exactly like a crash.

// daemonPolicy never retries: an abort is terminal and clients replan.
var daemonPolicy = control.Policy{MaxAttempts: 1}

// migration is one tenant's latest migration: the runner's running (or last
// closed) epoch.
type migration struct {
	epoch  int
	engine *migrate.Engine
	stop   chan struct{} // closed to abandon the pump (crash semantics)
	// recovered marks a migration resumed from the journal at startup.
	recovered bool
}

// migrateRequest tunes one migration run.
type migrateRequest struct {
	// Target is the destination layout (fraction rows). Absent, the
	// daemon advises first (through the cache) and migrates to the
	// recommendation.
	Target [][]float64 `json:"target"`
	Seed   int64       `json:"seed"`
	// BytesPerSec throttles the copy stream (simulated bytes/second;
	// 0 = unthrottled).
	BytesPerSec float64 `json:"bytes_per_sec"`
	ChunkBytes  int64   `json:"chunk_bytes"`
	// CheckpointBytes is the progress-journaling granularity.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	// SyncEvery batches progress-record fsyncs (see migrate.Options).
	SyncEvery int `json:"sync_every"`
}

func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if s.opt.DataDir == "" {
		writeError(w, http.StatusServiceUnavailable, "migrations need a data directory (-data)")
		return
	}
	t, st := s.snapshotFor(w, r)
	if t == nil {
		return
	}
	var req migrateRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 4<<20)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "parsing request: %v", err)
			return
		}
	}

	var target *layout.Layout
	if req.Target != nil {
		l, err := dblayout.LayoutFromRows(req.Target, len(st.names), len(st.caps))
		if err != nil {
			writeError(w, http.StatusBadRequest, "target layout: %v", err)
			return
		}
		if err := l.CheckCapacity(st.sizes, st.caps); err != nil {
			writeError(w, http.StatusUnprocessableEntity, "target layout: %v", err)
			return
		}
		target = l
	} else {
		key := adviseKey{version: st.version, seed: req.Seed, budget: s.opt.SolveBudget}
		rec, _, err := s.advise(r.Context(), t, st, key)
		if err != nil {
			code := http.StatusInternalServerError
			if errors.Is(err, ErrOverloaded) {
				code = http.StatusServiceUnavailable
			}
			writeError(w, code, "advising for migration: %v", err)
			return
		}
		target = rec.Final
	}

	plan, err := dblayout.MigrationPlan(st.problem, st.current, target)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "planning: %v", err)
		return
	}
	if len(plan) == 0 {
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"tenant": t.id, "version": st.version, "moves": 0, "started": false,
		})
		return
	}
	scratch := migrate.AutoScratch(st.current, target, st.sizes, st.caps)
	steps, err := migrate.BuildScript(st.current, plan, st.sizes, st.caps, scratch)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "building script: %v", err)
		return
	}

	mig, err := s.openMigration(t, st, steps, scratch, req)
	switch {
	case errors.Is(err, errMigrating):
		writeError(w, http.StatusConflict, "tenant %q already has a migration in flight", t.id)
		return
	case errors.Is(err, errStalePlan):
		writeError(w, http.StatusConflict, "tenant %q: %v; retry", t.id, err)
		return
	case errors.Is(err, errClosing):
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "starting migration: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"tenant": t.id, "version": st.version, "started": true,
		"epoch": mig.epoch, "moves": len(steps),
		"bytes": migrate.ScriptBytes(steps),
	})
}

var (
	// errStalePlan refuses a migration planned from a layout that is no
	// longer the tenant's current one.
	errStalePlan = errors.New("the current layout changed while the migration was planned")
	// errClosing refuses a migration once the server is shutting down.
	errClosing = errors.New("server shutting down")
)

// openMigration is handleMigrate's locked step. Under t.migMu it refuses a
// second migration (errMigrating), a closing server (errClosing), and a plan
// whose base st.current is no longer the tenant's current layout
// (errStalePlan) — a migration that finished, or a PUT that landed, while
// the plan was built from the snapshot st. The current layout is the
// runner's when a journal exists (it moves as soon as an epoch closes, before
// installLayout publishes it) and the live snapshot's otherwise. Then it
// starts the migration.
func (s *Server) openMigration(t *tenant, st *tenantState, steps []migrate.Step, scratch migrate.ScratchSpec, req migrateRequest) (*migration, error) {
	t.migMu.Lock()
	defer t.migMu.Unlock()
	if t.migrating() {
		return nil, errMigrating
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, errClosing
	}
	var current *layout.Layout
	if t.run != nil {
		current = t.run.Current()
	} else if live := t.snapshot(); live != nil {
		current = live.current
	}
	if current == nil || !current.Equal(st.current) {
		return nil, errStalePlan
	}
	return s.startMigration(t, st, steps, scratch, req)
}

// startMigration opens the next epoch on the tenant's runner, creating the
// runner and its journal (cbegin pins the current layout as the base) on the
// first migration, and launches the pump. Caller holds t.migMu.
func (s *Server) startMigration(t *tenant, st *tenantState, steps []migrate.Step, scratch migrate.ScratchSpec, req migrateRequest) (*migration, error) {
	if t.run == nil {
		if err := s.openRunner(t, st, os.O_CREATE|os.O_TRUNC, req.Seed); err != nil {
			return nil, err
		}
		if err := t.run.Begin(st.current); err != nil {
			t.resetJournal()
			return nil, err
		}
	}
	if err := t.run.Open(control.Plan{Steps: steps, Scratch: scratch, Reason: "api"}, s.migrateOptions(req)); err != nil {
		return nil, err
	}
	return s.launch(t, false), nil
}

// launch records the runner's current epoch as the tenant's migration and
// starts its pump. Caller holds t.migMu.
func (s *Server) launch(t *tenant, recovered bool) *migration {
	mig := &migration{epoch: t.run.Epoch(), engine: t.run.Engine(), stop: make(chan struct{}), recovered: recovered}
	t.mig = mig
	s.wg.Add(1)
	go s.pump(t, mig)
	return mig
}

// openRunner opens the tenant's journal file for append (flag adds creation
// flags) and builds the epoch runner over it and a fresh simulation. Caller
// holds t.migMu.
func (s *Server) openRunner(t *tenant, st *tenantState, flag int, seed int64) error {
	f, err := os.OpenFile(s.journalPath(t.id), flag|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	devs := make([]control.SimDevice, len(st.caps))
	for j := range devs {
		devs[j] = control.SimDevice{Name: st.problem.Targets[j].Name, Capacity: st.caps[j],
			BytesPerSec: s.opt.SimBytesPerSec, FailAt: -1}
	}
	t.jf = f
	t.sim = control.NewSimIO(devs, 0)
	t.run = control.NewRunner(control.RunnerConfig{
		N: len(st.names), M: len(st.caps), Seed: seed,
		Journal: f, IO: t.sim, Policy: daemonPolicy,
	})
	return nil
}

func (s *Server) migrateOptions(req migrateRequest) migrate.Options {
	opt := migrate.Options{
		BytesPerSec:     req.BytesPerSec,
		ChunkBytes:      req.ChunkBytes,
		CheckpointBytes: req.CheckpointBytes,
		SyncEvery:       req.SyncEvery,
		MaxQueueShare:   1, // no foreground I/O in the daemon's simulation
	}
	if opt.SyncEvery == 0 {
		opt.SyncEvery = 8
	}
	return opt
}

// pump advances the tenant's simulated clock on a real-time tick until the
// migration's epoch closes or the server shuts down. Abandoning mid-flight is
// deliberate crash semantics: the journal ends at a record boundary and the
// next daemon start resumes from it.
func (s *Server) pump(t *tenant, mig *migration) {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		default:
		}
		t.migMu.Lock()
		select {
		case <-mig.stop:
			t.migMu.Unlock()
			return
		default:
		}
		if t.run.Migrating() {
			t.sim.Advance(s.opt.SimStep)
		}
		done := !t.run.Migrating()
		t.migMu.Unlock()
		if done {
			// The runner has journaled the epoch's outcome; the engine's
			// result is final.
			res := mig.engine.Result()
			if s.log != nil {
				s.log.Info("migration finished", "tenant", t.id, "epoch", mig.epoch,
					"done", res.Done, "aborted", res.Aborted, "committed_bytes", res.CommittedBytes)
			}
			if res.Layout != nil {
				s.installLayout(t, res.Layout)
			}
			return
		}
		time.Sleep(s.opt.PumpInterval)
	}
}

// installLayout swaps the tenant's state to one whose current layout is l
// (a migration result, or the layout a recovered journal implies); an
// unchanged layout keeps the state and its version.
func (s *Server) installLayout(t *tenant, l *layout.Layout) {
	if st := t.snapshot(); st != nil && !st.current.Equal(l) {
		t.install(st.withLayout(l))
	}
}

func (s *Server) handleMigration(w http.ResponseWriter, r *http.Request) {
	t, st := s.snapshotFor(w, r)
	if t == nil {
		return
	}
	t.migMu.Lock()
	defer t.migMu.Unlock()
	if t.mig == nil {
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"tenant": t.id, "version": st.version, "active": false, "epochs": t.epochs(),
		})
		return
	}
	mig := t.mig
	res := mig.engine.Result()
	total := migrate.ScriptBytes(res.Steps)
	resp := map[string]interface{}{
		"tenant": t.id, "version": st.version,
		"active":          t.run.Migrating(),
		"epoch":           mig.epoch,
		"epochs":          t.epochs(),
		"recovered":       mig.recovered,
		"steps":           len(res.Steps),
		"committed_steps": res.Committed,
		"committed_bytes": res.CommittedBytes,
		"total_bytes":     total,
		"done":            res.Done,
		"aborted":         res.Aborted,
	}
	if err := t.run.Err(); err != nil {
		resp["error"] = err.Error()
	} else if res.Err != nil {
		resp["error"] = res.Err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

// restore rebuilds every persisted tenant and resumes in-flight migrations
// from their journals. Called from New before the server accepts requests.
func (s *Server) restore() error {
	entries, err := os.ReadDir(s.opt.DataDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".problem.json") {
			continue
		}
		id := strings.TrimSuffix(name, ".problem.json")
		if !tenantID.MatchString(id) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(s.opt.DataDir, name))
		if err != nil {
			return fmt.Errorf("tenant %s: %w", id, err)
		}
		t := newTenant(id)
		st, err := t.buildState(s, raw)
		if err != nil {
			if s.log != nil {
				s.log.Warn("skipping unloadable tenant", "tenant", id, "err", err)
			}
			continue
		}
		st = t.install(st)
		s.tenants[id] = t
		if err := s.recoverJournal(t, st); err != nil {
			return fmt.Errorf("tenant %s: %w", id, err)
		}
	}
	s.mTenants.Set(float64(len(s.tenants)))
	return nil
}

// recoverJournal resumes a tenant's migration journal: the runner rolls the
// closed epochs forward and settles the open one exactly once, resuming its
// engine (and pump) when it was in flight.
func (s *Server) recoverJournal(t *tenant, st *tenantState) error {
	path := s.journalPath(t.id)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	durable := control.TruncateTorn(data)
	if len(durable) == 0 {
		return os.Remove(path)
	}
	ck, err := control.Recover(durable)
	if err == nil && len(durable) != len(data) {
		// Drop the torn tail from the file itself so appended records
		// follow the last durable one.
		if err := os.Truncate(path, int64(len(durable))); err != nil {
			return err
		}
	}
	t.migMu.Lock()
	defer t.migMu.Unlock()
	if err == nil {
		if err := s.openRunner(t, st, 0, ck.Seed); err != nil {
			return err
		}
		err = t.run.Resume(ck, s.migrateOptions(migrateRequest{}))
	}
	if err != nil {
		t.resetJournal()
		if !errors.Is(err, control.ErrControllerCorrupt) {
			return err
		}
		// A journal the daemon cannot trust — corrupt, or written for
		// another problem shape — is quarantined, not appended to: the
		// tenant restarts from its problem document's layout.
		if s.log != nil {
			s.log.Warn("quarantining corrupt journal", "tenant", t.id, "err", err)
		}
		return os.Rename(path, path+".corrupt")
	}
	s.installLayout(t, t.run.Current())
	if !t.run.Migrating() {
		return nil
	}
	s.mRecovered.Inc()
	if s.log != nil {
		s.log.Info("resuming migration", "tenant", t.id, "epoch", t.run.Epoch(),
			"committed_steps", t.run.Engine().Result().Committed)
	}
	s.launch(t, true)
	return nil
}
