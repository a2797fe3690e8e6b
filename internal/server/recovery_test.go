package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dblayout"
	"dblayout/internal/control"
	"dblayout/internal/layout"
	"dblayout/internal/migrate"
	"dblayout/internal/wal"
)

// journalFixture frames records in the controller journal format, exactly as
// the daemon writes them.
func journalFixture(t *testing.T, recs ...interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := wal.Append(&buf, body); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// frameTypes lists the record type of every durable frame in a journal.
func frameTypes(t *testing.T, data []byte) []string {
	t.Helper()
	frames, err := wal.Frames(data)
	if err != nil {
		t.Fatalf("journal frames: %v", err)
	}
	out := make([]string, len(frames))
	for i, body := range frames {
		var tag struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal(body, &tag); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		out[i] = tag.T
	}
	return out
}

// readOptional returns a file's bytes, nil when it does not exist.
func readOptional(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func rowsEqual(got interface{}, want [][]float64) bool {
	rows, ok := got.([]interface{})
	if !ok || len(rows) != len(want) {
		return false
	}
	for i, w := range want {
		row, ok := rows[i].([]interface{})
		if !ok || len(row) != len(w) {
			return false
		}
		for j := range w {
			if v, _ := row[j].(float64); v != w[j] {
				return false
			}
		}
	}
	return true
}

// TestRecoverJournalBranches characterizes daemon startup recovery with one
// hand-framed journal per branch: torn tail, corrupt frame, closed epoch,
// done or aborted without an outcome, aborted without a retry decision, in
// flight, and a journal for a different problem shape. Each case restarts
// the daemon over the journal, checks the tenant's epochs and layout and
// exactly what the recovery appended, then restarts again and requires the
// second start to append nothing.
func TestRecoverJournalBranches(t *testing.T) {
	docCurrent := [][]float64{{1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}}
	migrated := [][]float64{{1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}, {0, 1, 0, 0}}
	steps := []migrate.Step{{Kind: migrate.StepDirect,
		Move: layout.Move{Object: 3, From: 0, To: 1, Fraction: 1, Bytes: 4 << 20}}}
	scratch := migrate.ScratchSpec{Target: 2, Bytes: 4 << 20}

	begin := control.Record{T: "cbegin", N: 4, M: 4, Rows: docCurrent, Seed: 7}
	plan := control.Record{T: "cplan", Epoch: 1, Attempt: 1, Steps: steps, Scratch: &scratch, Reason: "api"}
	segPlan := migrate.Record{T: "plan", Steps: steps, Scratch: &scratch}
	copying := migrate.Record{T: "state", Step: 0, State: "copying"}
	doneSeg := []interface{}{segPlan, copying,
		migrate.Record{T: "progress", Step: 0, Done: 4 << 20},
		migrate.Record{T: "state", Step: 0, State: "copied"},
		migrate.Record{T: "state", Step: 0, State: "committed"},
		migrate.Record{T: "done"}}
	abortSeg := []interface{}{segPlan, migrate.Record{T: "abort", Failed: []int{1}, Reason: "device fault"}}
	outcomeDone := control.Record{T: "coutcome", Epoch: 1, Outcome: "done"}
	outcomeAborted := control.Record{T: "coutcome", Epoch: 1, Outcome: "aborted", Failed: []int{1}}
	join := func(parts ...interface{}) []interface{} {
		var out []interface{}
		for _, p := range parts {
			if seg, ok := p.([]interface{}); ok {
				out = append(out, seg...)
			} else {
				out = append(out, p)
			}
		}
		return out
	}
	closedDone := journalFixture(t, join(begin, plan, doneSeg, outcomeDone)...)
	corrupt := append([]byte(nil), closedDone...)
	corrupt[len(journalFixture(t, begin))+12] ^= 0x20 // inside the cplan body

	cases := []struct {
		name        string
		journal     []byte
		quarantined bool
		inFlight    bool
		epochs      int
		current     [][]float64
		appended    []string // frame types the first restart appends
	}{
		{name: "torn tail", journal: append(append([]byte(nil), closedDone...), "0badf00d {\"t\":\"cpl"...),
			epochs: 1, current: migrated},
		{name: "corrupt frame", journal: corrupt, quarantined: true, current: docCurrent},
		{name: "closed done epoch", journal: closedDone, epochs: 1, current: migrated},
		{name: "done without outcome", journal: journalFixture(t, join(begin, plan, doneSeg)...),
			epochs: 1, current: migrated, appended: []string{"coutcome"}},
		{name: "aborted without outcome", journal: journalFixture(t, join(begin, plan, abortSeg)...),
			epochs: 1, current: docCurrent, appended: []string{"coutcome", "cfail"}},
		{name: "aborted without decision", journal: journalFixture(t, join(begin, plan, abortSeg, outcomeAborted)...),
			epochs: 1, current: docCurrent, appended: []string{"cfail"}},
		{name: "in flight", journal: journalFixture(t, begin, plan, segPlan, copying,
			migrate.Record{T: "progress", Step: 0, Done: 1 << 20}),
			inFlight: true, epochs: 1, current: migrated},
		{name: "shape mismatch", journal: journalFixture(t, control.Record{T: "cbegin", N: 2, M: 2,
			Rows: [][]float64{{1, 0}, {0, 1}}, Seed: 7}), quarantined: true, current: docCurrent},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			journalPath := filepath.Join(dir, "acme.journal")
			if err := os.WriteFile(filepath.Join(dir, "acme.problem.json"), testDoc(t, docCurrent), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(journalPath, tc.journal, 0o644); err != nil {
				t.Fatal(err)
			}
			durable := wal.TruncateTorn(tc.journal)
			opt := Options{DataDir: dir, PumpInterval: time.Millisecond}

			// settle starts a daemon over dir, waits for any recovered
			// migration to finish and its layout to be installed, checks
			// the tenant, and stops the daemon. It returns the journal
			// bytes the daemon left behind.
			settle := func(first bool) []byte {
				t.Helper()
				s, h := newTestServer(t, opt)
				defer func() { h.Close(); s.Close() }()
				client := h.Client()
				base := h.URL + "/v1/tenants/acme"
				if first && tc.inFlight {
					if st := migrationStatus(t, client, base); st["recovered"] != true {
						t.Fatalf("in-flight epoch not resumed: %v", st)
					}
				}
				deadline := time.Now().Add(30 * time.Second)
				for {
					code, info := do(t, client, "GET", base, nil)
					if code != http.StatusOK {
						t.Fatalf("GET tenant: %d %v", code, info)
					}
					if info["migrating"] == false && rowsEqual(info["current"], tc.current) {
						if got := int(info["epochs"].(float64)); got != tc.epochs {
							t.Fatalf("epochs = %d, want %d", got, tc.epochs)
						}
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("tenant never settled on %v: %v", tc.current, info)
					}
					time.Sleep(time.Millisecond)
				}
				return readOptional(t, journalPath)
			}

			after := settle(true)
			if tc.quarantined {
				if after != nil {
					t.Fatal("untrusted journal left in place")
				}
				if got := readOptional(t, journalPath+".corrupt"); !bytes.Equal(got, tc.journal) {
					t.Fatalf("quarantined journal holds %d bytes, want the original %d", len(got), len(tc.journal))
				}
			} else {
				if !bytes.HasPrefix(after, durable) {
					t.Fatal("recovery rewrote the durable journal prefix")
				}
				appended := frameTypes(t, after)[len(frameTypes(t, durable)):]
				if tc.inFlight {
					commits := readJournalCommits(t, journalPath)
					if !commits.done || commits.outcomes != 1 || commits.commits[0] != 1 {
						t.Fatalf("resumed epoch did not close exactly once: %+v (appended %v)", commits, appended)
					}
				} else if len(appended) != 0 || len(tc.appended) != 0 {
					if !reflect.DeepEqual(appended, tc.appended) {
						t.Fatalf("recovery appended %v, want %v", appended, tc.appended)
					}
				}
			}
			if again := settle(false); !bytes.Equal(again, after) {
				t.Fatalf("second restart changed the journal: %d -> %d bytes (%v)",
					len(after), len(again), frameTypes(t, wal.TruncateTorn(again)))
			}
		})
	}
}

// TestReplaceProblemRace pins the PUT /v1/tenants/{id} reset against a
// migration that starts while the new problem state is being built (the
// slow, calibrating part of a PUT): the locked reset must refuse it rather
// than delete the journal under the running migration. And a reset whose
// document cannot be persisted must leave the old document and its journal
// together, so a restart still recovers every migrated epoch.
func TestReplaceProblemRace(t *testing.T) {
	dir := t.TempDir()
	opt := Options{DataDir: dir, SimStep: 0.001, PumpInterval: time.Millisecond}
	s, h := newTestServer(t, opt)
	client := h.Client()
	base := h.URL + "/v1/tenants/acme"
	journalPath := filepath.Join(dir, "acme.journal")
	current := [][]float64{{1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}}
	target := [][]float64{{0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}, {1, 0, 0, 0}}
	if code, resp := do(t, client, "PUT", base, testDoc(t, current)); code != http.StatusOK {
		t.Fatalf("PUT: %d %v", code, resp)
	}
	s.mu.Lock()
	tn := s.tenants["acme"]
	s.mu.Unlock()

	// The PUT has built its new state; a migration lands before the reset.
	next, err := tn.buildState(s, testDoc(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	code, resp := do(t, client, "POST", base+"/migrate", map[string]interface{}{
		"target": target, "bytes_per_sec": 16 << 20,
	})
	if code != http.StatusOK || resp["started"] != true {
		t.Fatalf("migrate: %d %v", code, resp)
	}
	if _, err := s.replaceProblem(tn, next); !errors.Is(err, errMigrating) {
		t.Fatalf("reset during a migration returned %v, want errMigrating", err)
	}
	if readOptional(t, journalPath) == nil {
		t.Fatal("refused reset removed the journal")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, info := do(t, client, "GET", base, nil)
		if code != http.StatusOK {
			t.Fatalf("GET tenant: %d %v", code, info)
		}
		if info["migrating"] == false && rowsEqual(info["current"], target) {
			if info["epochs"] != float64(1) {
				t.Fatalf("epochs = %v, want 1", info["epochs"])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("migration never finished: %v", info)
		}
		time.Sleep(time.Millisecond)
	}

	// Persisting the new document fails (its temp path is a directory):
	// nothing may change, the journal included.
	oldDoc := readOptional(t, filepath.Join(dir, "acme.problem.json"))
	block := filepath.Join(dir, "acme.problem.json.tmp")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := s.replaceProblem(tn, next); err == nil {
		t.Fatal("reset succeeded although the document could not be persisted")
	}
	if readOptional(t, journalPath) == nil {
		t.Fatal("failed reset removed the journal")
	}
	if got := readOptional(t, filepath.Join(dir, "acme.problem.json")); !bytes.Equal(got, oldDoc) {
		t.Fatal("failed reset changed the persisted document")
	}
	if code, info := do(t, client, "GET", base, nil); code != http.StatusOK ||
		!rowsEqual(info["current"], target) || info["epochs"] != float64(1) {
		t.Fatalf("failed reset changed the tenant: %d %v", code, info)
	}
	h.Close()
	s.Close()

	_, h2 := newTestServer(t, opt)
	if code, info := do(t, h2.Client(), "GET", h2.URL+"/v1/tenants/acme", nil); code != http.StatusOK ||
		!rowsEqual(info["current"], target) || info["epochs"] != float64(1) {
		t.Fatalf("restart after a failed reset lost the migrated epoch: %d %v", code, info)
	}
}

// TestOpenMigrationStalePlan pins POST /migrate's locked step against a plan
// built from a snapshot that went stale before the lock was taken: with no
// journal yet, a PUT that installed another current layout; with a journal,
// a migration that finished in between. Both must be refused with
// errStalePlan and leave the journal as it was, while the same request from
// a fresh snapshot starts.
func TestOpenMigrationStalePlan(t *testing.T) {
	dir := t.TempDir()
	opt := Options{DataDir: dir, SimStep: 0.001, PumpInterval: time.Millisecond}
	s, h := newTestServer(t, opt)
	client := h.Client()
	base := h.URL + "/v1/tenants/acme"
	journalPath := filepath.Join(dir, "acme.journal")
	first := [][]float64{{1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}}
	second := [][]float64{{0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}, {1, 0, 0, 0}}
	third := [][]float64{{0, 0, 1, 0}, {0, 1, 0, 0}, {1, 0, 0, 0}, {0, 0, 0, 1}}
	if code, resp := do(t, client, "PUT", base, testDoc(t, first)); code != http.StatusOK {
		t.Fatalf("PUT: %d %v", code, resp)
	}
	s.mu.Lock()
	tn := s.tenants["acme"]
	s.mu.Unlock()
	open := func(st *tenantState, rows [][]float64) error {
		t.Helper()
		to, err := dblayout.LayoutFromRows(rows, len(st.names), len(st.caps))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := dblayout.MigrationPlan(st.problem, st.current, to)
		if err != nil {
			t.Fatal(err)
		}
		scratch := migrate.AutoScratch(st.current, to, st.sizes, st.caps)
		steps, err := migrate.BuildScript(st.current, plan, st.sizes, st.caps, scratch)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.openMigration(tn, st, steps, scratch, migrateRequest{BytesPerSec: 16 << 20})
		return err
	}

	stale := tn.snapshot()
	if code, resp := do(t, client, "PUT", base, testDoc(t, second)); code != http.StatusOK {
		t.Fatalf("PUT: %d %v", code, resp)
	}
	if err := open(stale, third); !errors.Is(err, errStalePlan) {
		t.Fatalf("plan from before a PUT returned %v, want errStalePlan", err)
	}
	if readOptional(t, journalPath) != nil {
		t.Fatal("refused migration created a journal")
	}

	stale = tn.snapshot()
	if err := open(stale, third); err != nil {
		t.Fatalf("plan from the live snapshot: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, info := do(t, client, "GET", base, nil)
		if code != http.StatusOK {
			t.Fatalf("GET tenant: %d %v", code, info)
		}
		if info["migrating"] == false && rowsEqual(info["current"], third) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("migration never finished: %v", info)
		}
		time.Sleep(time.Millisecond)
	}
	journal := readOptional(t, journalPath)
	if err := open(stale, first); !errors.Is(err, errStalePlan) {
		t.Fatalf("plan from before a finished migration returned %v, want errStalePlan", err)
	}
	if !bytes.Equal(readOptional(t, journalPath), journal) {
		t.Fatal("refused migration wrote to the journal")
	}
	if code, info := do(t, client, "GET", base, nil); code != http.StatusOK || info["migrating"] != false ||
		!rowsEqual(info["current"], third) || info["epochs"] != float64(1) {
		t.Fatalf("refused migration changed the tenant: %d %v", code, info)
	}
}
