package migrate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"dblayout/internal/layout"
	"dblayout/internal/wal"
)

// StepState is the write-ahead state machine each step advances through.
// Transitions are journaled before they take effect, so a journal replay
// reconstructs exactly how far the migration got:
//
//	planned -> copying -> copied -> committed
//	                   -> rolledback            (on a device fault)
//
// A rollback is always followed by the fault's abort record; the rollback
// record carries the failed targets so a crash between the two can be
// completed on resume (see Checkpoint.PendingAbort). The only records legal
// after a rollback are that abort or nothing (the crash).
type StepState uint8

const (
	StatePlanned StepState = iota
	StateCopying
	StateCopied
	StateCommitted
	StateRolledBack
)

var stepStateNames = [...]string{"planned", "copying", "copied", "committed", "rolledback"}

func (s StepState) String() string {
	if int(s) < len(stepStateNames) {
		return stepStateNames[s]
	}
	return fmt.Sprintf("StepState(%d)", uint8(s))
}

func parseStepState(name string) (StepState, bool) {
	for i, n := range stepStateNames {
		if n == name {
			return StepState(i), true
		}
	}
	return 0, false
}

// Record is one journal entry. The journal uses the CRC-framed line protocol
// of internal/wal: a record is durable only once its newline is written, so a
// torn final line is ignored on decode; corruption anywhere else is an error.
type Record struct {
	// T is the record type: "plan", "state", "progress", "abort", "done".
	T string `json:"t"`

	// plan: the full script this journal executes, written first.
	Steps   []Step       `json:"steps,omitempty"`
	Scratch *ScratchSpec `json:"scratch,omitempty"`

	// state and progress records address a step by index.
	Step  int    `json:"step,omitempty"`
	State string `json:"state,omitempty"` // state: the new StepState
	Done  int64  `json:"done,omitempty"`  // progress: bytes copied so far for Step

	// abort: the migration stopped on a device fault. A rolledback state
	// record carries the same fields, so the abort decision survives a
	// crash landing between the rollback and the abort record.
	Failed []int  `json:"failed,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// appendRecord journals r under w's sync policy: progress records may batch
// their fsyncs (losing one only costs a recopy from the previous durable
// mark), every state-transition record (plan, state, abort, done) is a commit
// point synced before the transition it announces takes effect.
func appendRecord(w *wal.Writer, r Record) error {
	if r.T == "progress" {
		return w.Progress(r)
	}
	return w.Commit(r)
}

// DecodeJournal parses journal bytes into records. A torn final line (no
// trailing newline, e.g. after a crash mid-write) is ignored; any other
// malformation returns a *CorruptError wrapping ErrJournalCorrupt. It never
// panics, regardless of input.
func DecodeJournal(data []byte) ([]Record, error) {
	bodies, err := wal.Frames(data)
	if err != nil {
		var fe *wal.FrameError
		if errors.As(err, &fe) {
			return nil, &CorruptError{Record: fe.Index, Reason: fe.Reason}
		}
		return nil, &CorruptError{Reason: err.Error()}
	}
	out := make([]Record, 0, len(bodies))
	for i, body := range bodies {
		rec, err := DecodeRecordBody(body)
		if err != nil {
			var ce *CorruptError
			if errors.As(err, &ce) {
				ce.Record = i
			}
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// TruncateTorn returns the journal prefix ending at the last newline — the
// durable records — discarding a torn final line left by a crash mid-write.
// Resuming callers truncate the journal file likewise before appending, so
// new records are never glued onto a torn line.
func TruncateTorn(data []byte) []byte {
	return wal.TruncateTorn(data)
}

// DecodeRecordBody parses one CRC-validated frame body into a migration
// Record, rejecting unknown fields and unknown record types. Journals that
// interleave migration records with their own (internal/control) route frames
// here after inspecting the type tag. The returned *CorruptError has Record 0;
// callers that know the frame index fill it in.
func DecodeRecordBody(body []byte) (Record, error) {
	corrupt := func(format string, args ...interface{}) (Record, error) {
		return Record{}, &CorruptError{Reason: fmt.Sprintf(format, args...)}
	}
	var rec Record
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return corrupt("bad JSON body: %v", err)
	}
	switch rec.T {
	case "plan", "state", "progress", "abort", "done":
	default:
		return corrupt("unknown record type %q", rec.T)
	}
	return rec, nil
}

// Checkpoint is the durable state recovered from a journal: the script being
// executed and how far each step got. An engine given a Checkpoint resumes
// exactly there — committed steps are skipped, a copied step is re-committed
// without recopying, and a copying step restarts from its last journaled
// progress mark.
type Checkpoint struct {
	Steps    []Step
	Scratch  ScratchSpec
	State    []StepState
	Progress []int64 // journaled copied-bytes per step (only meaningful while copying)
	Aborted  bool
	Failed   []int // failed targets, when Aborted or PendingAbort
	Done     bool

	// PendingAbort marks a journal that ends after a step rollback but
	// before the abort record the fault handler writes next: the crash
	// landed between the two. The rolled-back step must not be skipped as
	// if the migration could still succeed — a resumed engine completes
	// the abort (using Failed and PendingAbortReason from the rollback
	// record) before doing anything else, making the abort exactly-once.
	PendingAbort       bool
	PendingAbortReason string
}

// CommittedSteps counts steps that reached StateCommitted.
func (c *Checkpoint) CommittedSteps() int {
	n := 0
	for _, s := range c.State {
		if s == StateCommitted {
			n++
		}
	}
	return n
}

// ApplyCommitted applies every committed step to l, reconstructing the
// consistent layout a journal left behind (base plus committed moves).
// Journal-replaying callers (internal/control) use it to roll closed
// migration epochs forward.
func (c *Checkpoint) ApplyCommitted(l *layout.Layout) {
	for i, s := range c.State {
		if s == StateCommitted {
			applyStep(l, c.Steps[i])
		}
	}
}

// CommittedBytes sums the bytes of committed steps.
func (c *Checkpoint) CommittedBytes() int64 {
	var b int64
	for i, s := range c.State {
		if s == StateCommitted {
			b += c.Steps[i].Move.Bytes
		}
	}
	return b
}

// Recover replays decoded journal records into a Checkpoint, validating that
// the record sequence is one the engine could have produced: a plan record
// first, then monotone per-step state transitions with progress only while
// copying, and nothing after an abort or done record. Violations return a
// *CorruptError wrapping ErrJournalCorrupt.
func Recover(records []Record) (*Checkpoint, error) {
	corrupt := func(idx int, format string, args ...interface{}) (*Checkpoint, error) {
		return nil, &CorruptError{Record: idx, Reason: fmt.Sprintf(format, args...)}
	}
	if len(records) == 0 {
		return corrupt(0, "journal is empty (no plan record)")
	}
	var ck *Checkpoint
	for i, r := range records {
		if ck != nil && (ck.Aborted || ck.Done) {
			return corrupt(i, "record after terminal %s", records[i-1].T)
		}
		if ck != nil && ck.PendingAbort && r.T != "abort" {
			return corrupt(i, "%s record after a rollback; only its abort may follow", r.T)
		}
		if ck == nil {
			if r.T != "plan" {
				return corrupt(i, "journal starts with %q, want plan", r.T)
			}
			if err := validateSteps(r.Steps); err != nil {
				return corrupt(i, "plan: %v", err)
			}
			ck = &Checkpoint{
				Steps:    r.Steps,
				State:    make([]StepState, len(r.Steps)),
				Progress: make([]int64, len(r.Steps)),
			}
			if r.Scratch != nil {
				ck.Scratch = *r.Scratch
			}
			continue
		}
		switch r.T {
		case "plan":
			return corrupt(i, "second plan record")
		case "state":
			if r.Step < 0 || r.Step >= len(ck.Steps) {
				return corrupt(i, "state for step %d of %d", r.Step, len(ck.Steps))
			}
			next, ok := parseStepState(r.State)
			if !ok {
				return corrupt(i, "unknown state %q", r.State)
			}
			cur := ck.State[r.Step]
			ok = (cur == StatePlanned && next == StateCopying) ||
				(cur == StateCopying && (next == StateCopied || next == StateRolledBack)) ||
				(cur == StateCopied && next == StateCommitted)
			if !ok {
				return corrupt(i, "step %d cannot go %v -> %v", r.Step, cur, next)
			}
			ck.State[r.Step] = next
			if next == StateRolledBack {
				ck.PendingAbort = true
				ck.Failed = r.Failed
				ck.PendingAbortReason = r.Reason
			}
		case "progress":
			if r.Step < 0 || r.Step >= len(ck.Steps) {
				return corrupt(i, "progress for step %d of %d", r.Step, len(ck.Steps))
			}
			if ck.State[r.Step] != StateCopying {
				return corrupt(i, "progress for step %d in state %v", r.Step, ck.State[r.Step])
			}
			if r.Done <= ck.Progress[r.Step] || r.Done > ck.Steps[r.Step].Move.Bytes {
				return corrupt(i, "progress for step %d is %d, have %d of %d bytes",
					r.Step, r.Done, ck.Progress[r.Step], ck.Steps[r.Step].Move.Bytes)
			}
			ck.Progress[r.Step] = r.Done
		case "abort":
			ck.Aborted = true
			ck.Failed = r.Failed
			ck.PendingAbort = false
			ck.PendingAbortReason = ""
		case "done":
			// A fault always ends in an abort, so a rolled-back step can
			// never be part of a completed migration.
			for s, st := range ck.State {
				if st != StateCommitted {
					return corrupt(i, "done with step %d still %v", s, st)
				}
			}
			ck.Done = true
		}
	}
	return ck, nil
}

// validateSteps sanity-checks a journaled script so a corrupt plan record
// cannot drive the engine out of bounds.
func validateSteps(steps []Step) error {
	if len(steps) == 0 {
		return fmt.Errorf("empty script")
	}
	for i, s := range steps {
		if s.Kind > StepStageOut {
			return fmt.Errorf("step %d has unknown kind %d", i, s.Kind)
		}
		m := s.Move
		if m.Object < 0 || m.From < 0 || m.To < 0 || m.From == m.To {
			return fmt.Errorf("step %d has degenerate move %+v", i, m)
		}
		if m.Bytes < 0 || m.Fraction < 0 || m.Fraction > 1+1e-6 {
			return fmt.Errorf("step %d moves impossible volume (%d bytes, fraction %g)", i, m.Bytes, m.Fraction)
		}
		if s.MoveIndex < 0 {
			return fmt.Errorf("step %d has negative move index", i)
		}
	}
	return nil
}
