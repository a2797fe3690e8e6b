package control

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"dblayout/internal/layout"
	"dblayout/internal/migrate"
	"dblayout/internal/wal"
)

// The controller journal is one CRC-framed record stream (internal/wal)
// holding two record namespaces: controller records, whose type tags start
// with "c", and the migration engine's own records ("plan", "state",
// "progress", "abort", "done"), which the engine appends to the same writer
// while a migration epoch is open. One file therefore captures the whole
// loop — every decision and every byte-level migration transition — and a
// crash at any record resumes exactly-once from it.
//
// Record grammar (validated by Recover):
//
//	journal  := cbegin epoch*
//	epoch    := advise-fail | migration
//	advise-fail := cretry | cfail            (re-advise died before a plan)
//	migration := cplan migrate-records (coutcome (cretry | cfail)? )?
//
// A cplan opens epoch k (strictly increasing); the engine's records follow;
// coutcome closes the epoch as "done" or "aborted". An aborted outcome (or a
// failed re-advise) is followed by a cretry scheduling the next attempt, or
// by a cfail when the retry budget is spent. A journal may end anywhere — a
// crash — and Recover reconstructs the exact resume point. Runner is the
// only writer of controller records and the only reader of the open epoch a
// Checkpoint reports.

// Controller record types.
const (
	recBegin   = "cbegin"
	recPlan    = "cplan"
	recOutcome = "coutcome"
	recRetry   = "cretry"
	recFail    = "cfail"
)

// Outcome values of a coutcome record.
const (
	outcomeDone    = "done"
	outcomeAborted = "aborted"
)

// Record is one controller journal entry.
type Record struct {
	// T is the record type: "cbegin", "cplan", "coutcome", "cretry",
	// "cfail".
	T string `json:"t"`

	// cbegin: the run identity — problem shape, starting layout, seed.
	N    int         `json:"n,omitempty"`
	M    int         `json:"m,omitempty"`
	Rows [][]float64 `json:"rows,omitempty"`
	Seed int64       `json:"seed,omitempty"`

	// cplan: a migration epoch opens.
	Epoch   int                  `json:"epoch,omitempty"`
	Attempt int                  `json:"attempt,omitempty"`
	Steps   []migrate.Step       `json:"steps,omitempty"`
	Scratch *migrate.ScratchSpec `json:"scratch,omitempty"`
	Reason  string               `json:"reason,omitempty"` // signal that triggered the re-advise
	Gain    float64              `json:"gain,omitempty"`   // predicted max-utilization gain
	Sources []int                `json:"sources,omitempty"`

	// coutcome: the epoch closed.
	Outcome  string `json:"outcome,omitempty"`
	Cooldown int    `json:"cooldown,omitempty"`
	Failed   []int  `json:"failed,omitempty"`

	// cretry / cfail: the retry decision after a failure.
	Delay int    `json:"delay,omitempty"` // refit windows until the next attempt
	Cause string `json:"cause,omitempty"`
}

// typeTag is the minimal decode that routes a frame to its namespace.
type typeTag struct {
	T string `json:"t"`
}

// DecodeRecordBody parses one CRC-validated frame body into a controller
// Record, rejecting unknown fields and unknown record types. The returned
// *CorruptError has Record 0; callers that know the frame index fill it in.
func DecodeRecordBody(body []byte) (Record, error) {
	var rec Record
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return Record{}, &CorruptError{Reason: fmt.Sprintf("bad JSON body: %v", err)}
	}
	switch rec.T {
	case recBegin, recPlan, recOutcome, recRetry, recFail:
	default:
		return Record{}, &CorruptError{Reason: fmt.Sprintf("unknown record type %q", rec.T)}
	}
	return rec, nil
}

// entry is one decoded journal frame: exactly one of ctrl/mig is meaningful.
type entry struct {
	idx  int
	ctrl *Record
	mig  *migrate.Record
}

// decodeEntries splits journal bytes into the interleaved controller and
// migration records. A torn final line is ignored; any other malformation
// returns a *CorruptError wrapping ErrControllerCorrupt. It never panics,
// regardless of input.
func decodeEntries(data []byte) ([]entry, error) {
	frames, err := wal.Frames(data)
	if err != nil {
		var fe *wal.FrameError
		if errors.As(err, &fe) {
			return nil, &CorruptError{Record: fe.Index, Reason: fe.Reason}
		}
		return nil, &CorruptError{Reason: err.Error()}
	}
	out := make([]entry, 0, len(frames))
	for i, body := range frames {
		var tag typeTag
		if err := json.Unmarshal(body, &tag); err != nil {
			return nil, &CorruptError{Record: i, Reason: fmt.Sprintf("bad JSON body: %v", err)}
		}
		if len(tag.T) > 0 && tag.T[0] == 'c' {
			rec, err := DecodeRecordBody(body)
			if err != nil {
				var ce *CorruptError
				if errors.As(err, &ce) {
					ce.Record = i
				}
				return nil, err
			}
			out = append(out, entry{idx: i, ctrl: &rec})
			continue
		}
		mrec, err := migrate.DecodeRecordBody(body)
		if err != nil {
			return nil, &CorruptError{Record: i, Reason: fmt.Sprintf("migration record: %v", err)}
		}
		out = append(out, entry{idx: i, mig: &mrec})
	}
	return out, nil
}

// RetryState is a pending cretry: the attempt it schedules and the backoff
// it chose.
type RetryState struct {
	Attempt int // the attempt number the retry will run
	Delay   int // refit windows of backoff chosen at journal time
	Cause   string
}

// OpenEpoch is a migration epoch whose coutcome is missing — the crash
// happened mid-migration (or between the engine finishing and the outcome
// record landing).
type OpenEpoch struct {
	// Plan is the cplan record that opened the epoch.
	Plan Record
	// Segment holds the engine's own records within the epoch, in order.
	Segment []migrate.Record
	// Checkpoint is the recovered engine state, nil when the crash landed
	// before the engine journaled anything (the epoch restarts fresh).
	Checkpoint *migrate.Checkpoint
}

// Checkpoint is the durable controller state recovered from a journal: where
// the loop was when the crash hit, and the exact layout implied by every
// committed migration step.
type Checkpoint struct {
	N, M int
	Seed int64
	// Base is the layout journaled at cbegin.
	Base *layout.Layout
	// Current is Base plus the committed steps of every closed epoch — the
	// layout an open epoch (if any) migrates from.
	Current *layout.Layout
	// Epoch is the last epoch a cplan opened (0 before any).
	Epoch int
	// Attempt is the attempt number the next try must carry: the open
	// epoch's attempt, a pending retry's attempt, or 1.
	Attempt int
	// Failed is the merged set of failed targets across all aborts.
	Failed []int
	// Open is the epoch in flight at the crash, nil when none.
	Open *OpenEpoch
	// Retry is a cretry whose attempt has not produced a cplan yet.
	Retry *RetryState
	// Cooling reports that the journal ends right after a successful
	// epoch: the controller was inside its post-migration cooldown.
	// The countdown itself is not journaled; resuming restarts it in full
	// (conservative, documented in DESIGN.md).
	Cooling bool
	// NeedRetryDecision reports that the journal ends right after an
	// aborted outcome whose retry decision (cretry or cfail) did not land
	// before the crash. The decision is deterministic given the journal,
	// so the resuming controller re-makes exactly it.
	NeedRetryDecision bool
}

// Recover replays decoded journal entries into a Checkpoint, validating that
// the sequence is one the controller could have produced. Violations return
// a *CorruptError wrapping ErrControllerCorrupt.
func Recover(data []byte) (*Checkpoint, error) {
	entries, err := decodeEntries(data)
	if err != nil {
		return nil, err
	}
	corrupt := func(idx int, format string, args ...interface{}) (*Checkpoint, error) {
		return nil, &CorruptError{Record: idx, Reason: fmt.Sprintf(format, args...)}
	}
	if len(entries) == 0 {
		return corrupt(0, "journal is empty (no cbegin record)")
	}

	var ck *Checkpoint
	var open *OpenEpoch
	needDecision := false // last record was coutcome(aborted); cretry/cfail must follow
	for _, e := range entries {
		if ck == nil {
			if e.ctrl == nil || e.ctrl.T != recBegin {
				return corrupt(e.idx, "journal must start with cbegin")
			}
			b := e.ctrl
			if b.N <= 0 || b.M <= 0 || len(b.Rows) != b.N {
				return corrupt(e.idx, "cbegin declares %dx%d but carries %d rows", b.N, b.M, len(b.Rows))
			}
			base := layout.New(b.N, b.M)
			for i, row := range b.Rows {
				if len(row) != b.M {
					return corrupt(e.idx, "cbegin row %d has %d targets, want %d", i, len(row), b.M)
				}
				base.SetRow(i, row)
			}
			if err := base.CheckIntegrity(); err != nil {
				return corrupt(e.idx, "cbegin layout: %v", err)
			}
			ck = &Checkpoint{
				N: b.N, M: b.M, Seed: b.Seed,
				Base: base, Current: base.Clone(), Attempt: 1,
			}
			continue
		}

		if e.mig != nil {
			if open == nil {
				return corrupt(e.idx, "migration record %q outside an open epoch", e.mig.T)
			}
			open.Segment = append(open.Segment, *e.mig)
			continue
		}

		r := e.ctrl
		switch r.T {
		case recBegin:
			return corrupt(e.idx, "second cbegin record")
		case recPlan:
			if open != nil {
				return corrupt(e.idx, "cplan for epoch %d while epoch %d is open", r.Epoch, open.Plan.Epoch)
			}
			if needDecision {
				return corrupt(e.idx, "cplan before the retry decision of aborted epoch %d", ck.Epoch)
			}
			if r.Epoch != ck.Epoch+1 {
				return corrupt(e.idx, "cplan epoch %d after epoch %d", r.Epoch, ck.Epoch)
			}
			if r.Attempt != ck.Attempt {
				return corrupt(e.idx, "cplan attempt %d, expected %d", r.Attempt, ck.Attempt)
			}
			if len(r.Steps) == 0 {
				return corrupt(e.idx, "cplan with no steps")
			}
			ck.Epoch = r.Epoch
			ck.Retry = nil
			ck.Cooling = false
			open = &OpenEpoch{Plan: *r}
		case recOutcome:
			if open == nil {
				return corrupt(e.idx, "coutcome with no open epoch")
			}
			if r.Epoch != open.Plan.Epoch {
				return corrupt(e.idx, "coutcome for epoch %d, open epoch is %d", r.Epoch, open.Plan.Epoch)
			}
			mck, err := recoverSegment(open, e.idx)
			if err != nil {
				return nil, err
			}
			if mck == nil {
				return corrupt(e.idx, "coutcome for an epoch with no migration records")
			}
			switch r.Outcome {
			case outcomeDone:
				if !mck.Done {
					return corrupt(e.idx, "outcome done but the migration segment is not")
				}
				ck.Attempt = 1
				ck.Cooling = true
			case outcomeAborted:
				if !mck.Aborted {
					return corrupt(e.idx, "outcome aborted but the migration segment is not")
				}
				ck.Failed = mergeFailed(ck.Failed, r.Failed)
				needDecision = true
			default:
				return corrupt(e.idx, "unknown outcome %q", r.Outcome)
			}
			mck.ApplyCommitted(ck.Current)
			if err := ck.Current.CheckIntegrity(); err != nil {
				return corrupt(e.idx, "layout after epoch %d: %v", r.Epoch, err)
			}
			open = nil
		case recRetry:
			if open != nil {
				return corrupt(e.idx, "cretry while epoch %d is open", open.Plan.Epoch)
			}
			if r.Attempt != ck.Attempt+1 {
				return corrupt(e.idx, "cretry schedules attempt %d after attempt %d", r.Attempt, ck.Attempt)
			}
			if r.Delay < 0 {
				return corrupt(e.idx, "cretry with negative delay %d", r.Delay)
			}
			ck.Attempt = r.Attempt
			ck.Retry = &RetryState{Attempt: r.Attempt, Delay: r.Delay, Cause: r.Cause}
			ck.Cooling = false
			needDecision = false
		case recFail:
			if open != nil {
				return corrupt(e.idx, "cfail while epoch %d is open", open.Plan.Epoch)
			}
			// A give-up enters cooldown, exactly as the live path does.
			ck.Attempt = 1
			ck.Retry = nil
			ck.Cooling = true
			needDecision = false
		}
	}

	ck.NeedRetryDecision = needDecision
	if open != nil {
		mck, err := recoverSegment(open, len(entries))
		if err != nil {
			return nil, err
		}
		open.Checkpoint = mck
		ck.Open = open
	}
	return ck, nil
}

// recoverSegment validates an epoch's embedded migration records against the
// epoch's plan and returns the engine checkpoint (nil for an empty segment).
func recoverSegment(open *OpenEpoch, idx int) (*migrate.Checkpoint, error) {
	if len(open.Segment) == 0 {
		return nil, nil
	}
	mck, err := migrate.Recover(open.Segment)
	if err != nil {
		return nil, &CorruptError{Record: idx, Reason: fmt.Sprintf("epoch %d migration segment: %v", open.Plan.Epoch, err)}
	}
	if len(mck.Steps) != len(open.Plan.Steps) {
		return nil, &CorruptError{Record: idx, Reason: fmt.Sprintf("epoch %d engine plans %d steps, cplan has %d",
			open.Plan.Epoch, len(mck.Steps), len(open.Plan.Steps))}
	}
	for i := range mck.Steps {
		if mck.Steps[i] != open.Plan.Steps[i] {
			return nil, &CorruptError{Record: idx, Reason: fmt.Sprintf("epoch %d engine step %d diverges from cplan",
				open.Plan.Epoch, i)}
		}
	}
	return mck, nil
}

// mergeFailed merges newly failed targets into the sorted, deduplicated set.
func mergeFailed(have, add []int) []int {
	out := append([]int(nil), have...)
	for _, j := range add {
		if !slices.Contains(out, j) {
			out = append(out, j)
		}
	}
	slices.Sort(out)
	return out
}

// TruncateTorn returns the journal prefix ending at the last newline,
// discarding a torn final line left by a crash mid-write. It is
// wal.TruncateTorn re-exported for symmetry with package migrate.
func TruncateTorn(data []byte) []byte {
	return wal.TruncateTorn(data)
}
