package control

import (
	"fmt"
	"io"

	"dblayout/internal/layout"
	"dblayout/internal/migrate"
	"dblayout/internal/wal"
)

// Policy is the retry policy a Runner applies when an attempt fails.
type Policy struct {
	// MaxAttempts bounds the tries per episode, the first included;
	// exhaustion journals a terminal cfail.
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the exponential retry backoff, in
	// the caller's clock ticks (refit windows for the controller).
	BaseBackoff, MaxBackoff int
	Cooldown                int // the quiet period journaled with a done outcome
}

// EventKind classifies a Runner lifecycle Event. Each event is delivered
// after the record announcing it is durable.
type EventKind int

const (
	EventResumed EventKind = iota // a recovered checkpoint was adopted; its open epoch is settled next
	EventStarted                  // an epoch's engine is about to start (fresh or resumed)
	EventDone                     // the epoch closed done
	EventAborted                  // the epoch closed aborted; the retry decision follows
	EventRetry                    // a cretry scheduled the next attempt
	EventGaveUp                   // a cfail ended the episode; Err is the *RetryError
	EventCrashed                  // a journal write or an engine start failed; the runner stopped
)

// Event is one Runner lifecycle transition.
type Event struct {
	Kind  EventKind
	Epoch int
	// Attempt is the attempt the next try carries (Resumed), the attempt
	// scheduled (Retry) or the attempts consumed (GaveUp).
	Attempt int
	Delay   int    // Retry: backoff before the attempt
	Stage   string // Retry: what failed ("abort", "advise", "plan")
	Failed  []int  // Aborted: the targets the abort reported
	Err     error
}

// RunnerConfig configures a Runner.
type RunnerConfig struct {
	// N and M are the problem shape a journal must have.
	N, M int
	// Seed is journaled at cbegin, must match a resumed journal's, and
	// derives the retry backoff jitter.
	Seed int64
	// Journal receives the write-ahead record stream; nil runs unjournaled.
	Journal io.Writer
	// IO is the surface every epoch's engine executes against.
	IO     migrate.IO
	Policy Policy
	// OnEvent, when set, observes every lifecycle transition, called from
	// inside the runner's methods and its engines' completion callbacks.
	OnEvent func(Event)
}

// Runner owns the migration-epoch lifecycle of one controller journal: it
// writes cbegin on a fresh journal, resumes from a recovered Checkpoint,
// opens epochs (cplan, then the engine), closes them (coutcome), makes the
// retry decision after a failed attempt (cretry or cfail), and tracks the
// layout the journal implies and the merged set of failed targets. The
// autonomic Controller and the advisord daemon both drive their migrations
// through it, so the journal grammar has one writer.
//
// A Runner is not safe for concurrent use: its methods and the IO that drives
// its engines must be serialized (the controller's event loop, the daemon's
// per-tenant migration lock).
type Runner struct {
	cfg RunnerConfig
	jw  *wal.Writer

	current *layout.Layout
	epoch   int // last epoch a cplan opened
	attempt int // attempt number the next try carries (1 = fresh episode)
	failed  []int
	engine  *migrate.Engine // the latest epoch's engine
	running bool            // engine has not finished yet
	err     error           // sticky crash
}

// NewRunner returns a runner over cfg's journal. Call Begin (fresh journal)
// or Resume (recovered journal) before opening an epoch.
func NewRunner(cfg RunnerConfig) *Runner {
	return &Runner{cfg: cfg, jw: wal.NewWriter(cfg.Journal, 0), attempt: 1}
}

// Begin journals cbegin: the starting layout every epoch migrates from.
func (r *Runner) Begin(current *layout.Layout) error {
	r.current = current.Clone()
	r.journal(Record{T: recBegin, N: current.N, M: current.M, Rows: current.Rows(), Seed: r.cfg.Seed})
	return r.err
}

// Resume adopts a recovered checkpoint and settles the epoch it left open,
// exactly once: an epoch whose engine finished (done or aborted) before its
// coutcome landed is closed without re-running anything, an in-flight epoch
// restarts its engine from the checkpoint, and an aborted epoch missing its
// retry decision gets it now (the decision is deterministic given the
// journal). A journal for another problem shape is reported corrupt.
func (r *Runner) Resume(ck *Checkpoint, opt migrate.Options) error {
	if ck.N != r.cfg.N || ck.M != r.cfg.M {
		return &CorruptError{Reason: fmt.Sprintf("journal is for a %dx%d instance, the problem is %dx%d",
			ck.N, ck.M, r.cfg.N, r.cfg.M)}
	}
	if ck.Seed != r.cfg.Seed {
		return fmt.Errorf("control: journal seed %d does not match config seed %d", ck.Seed, r.cfg.Seed)
	}
	r.current = ck.Current
	r.epoch = ck.Epoch
	r.attempt = ck.Attempt
	r.failed = ck.Failed
	r.emit(Event{Kind: EventResumed, Epoch: r.epoch, Attempt: r.attempt})

	if open := ck.Open; open != nil {
		mck := open.Checkpoint
		switch {
		case mck != nil && mck.Done:
			mck.ApplyCommitted(r.current)
			r.closeDone(open.Plan.Epoch)
		case mck != nil && mck.Aborted:
			mck.ApplyCommitted(r.current)
			r.closeAborted(open.Plan.Epoch, mck.Failed,
				fmt.Errorf("resumed after abort, targets %v failed", mck.Failed))
		default:
			// Mid-flight, or crashed before the engine journaled its plan
			// record: the engine skips committed steps itself.
			if err := r.startEngine(open.Plan, mck, opt); err != nil {
				return fmt.Errorf("control: resuming epoch %d: %w", open.Plan.Epoch, err)
			}
		}
		return r.err
	}
	if ck.NeedRetryDecision {
		// An exhausted budget is informational here; only a fresh crash
		// fails the resume.
		_ = r.Fail("abort", fmt.Errorf("resumed after aborted epoch %d", ck.Epoch))
	}
	return r.err
}

// Plan is the migration a caller opens the next epoch with.
type Plan struct {
	Steps   []migrate.Step
	Scratch migrate.ScratchSpec
	Reason  string  // what triggered it
	Gain    float64 // predicted max-utilization gain
}

// Open journals the next epoch's cplan and starts its engine; the epoch
// closes on its own once the engine finishes. It returns an error when the
// epoch could not be opened. An engine that cannot be built after its cplan
// is durable is a crash: the journal must not be left with a dangling epoch
// that never closes. A crash of the running engine (even inside Start) is
// reported through OnEvent and Err, like every later one.
func (r *Runner) Open(p Plan, opt migrate.Options) error {
	if r.err != nil {
		return r.err
	}
	if r.running {
		return fmt.Errorf("control: epoch %d is still migrating", r.epoch)
	}
	rec := Record{
		T: recPlan, Epoch: r.epoch + 1, Attempt: r.attempt,
		Steps: p.Steps, Scratch: &p.Scratch, Reason: p.Reason, Gain: p.Gain,
		Sources: append([]int(nil), r.failed...),
	}
	if !r.journal(rec) {
		return r.err
	}
	r.epoch = rec.Epoch
	if err := r.startEngine(rec, nil, opt); err != nil {
		r.crash(fmt.Errorf("control: engine start: %w", err))
		return r.err
	}
	return nil
}

// startEngine builds and starts the engine for an epoch, fresh (ck nil —
// the engine journals its own plan record) or from a recovered checkpoint.
func (r *Runner) startEngine(plan Record, ck *migrate.Checkpoint, opt migrate.Options) error {
	opt.Journal = r.cfg.Journal
	opt.Checkpoint = ck
	if plan.Scratch != nil {
		opt.Scratch = *plan.Scratch
	}
	opt.FailedSources = append([]int(nil), r.failed...)
	epoch := plan.Epoch
	eng, err := migrate.NewEngine(r.cfg.IO, r.current, plan.Steps, opt, func(res *migrate.Result) {
		r.engineDone(epoch, res)
	})
	if err != nil {
		return err
	}
	r.engine, r.running = eng, true
	r.emit(Event{Kind: EventStarted, Epoch: epoch})
	eng.Start()
	return nil
}

// engineDone is the engine's completion callback.
func (r *Runner) engineDone(epoch int, res *migrate.Result) {
	r.running = false
	if res.Crashed {
		r.crash(res.Err)
		return
	}
	r.current = res.Layout.Clone()
	if res.Done {
		r.closeDone(epoch)
		return
	}
	r.closeAborted(epoch, res.FailedTargets, res.Err)
}

// closeDone closes a successful epoch and starts a fresh episode.
func (r *Runner) closeDone(epoch int) {
	if !r.journal(Record{T: recOutcome, Epoch: epoch, Outcome: outcomeDone, Cooldown: r.cfg.Policy.Cooldown}) {
		return
	}
	r.attempt = 1
	r.emit(Event{Kind: EventDone, Epoch: epoch})
}

// closeAborted closes an aborted epoch and makes the retry decision.
func (r *Runner) closeAborted(epoch int, failed []int, cause error) {
	if !r.journal(Record{T: recOutcome, Epoch: epoch, Outcome: outcomeAborted, Failed: failed}) {
		return
	}
	r.failed = mergeFailed(r.failed, failed)
	r.emit(Event{Kind: EventAborted, Epoch: epoch, Failed: failed})
	_ = r.Fail("abort", cause)
}

// Fail journals the retry decision after a failed attempt — an aborted
// epoch, or a re-advise or plan that died before opening one: a cretry with
// backoff before the next attempt, or a terminal cfail when the budget is
// spent. It returns a *RetryError on exhaustion (informational: the episode
// is over), the sticky crash error, or nil when a retry is scheduled.
func (r *Runner) Fail(stage string, cause error) error {
	if r.attempt >= r.cfg.Policy.MaxAttempts {
		if !r.journal(Record{T: recFail, Attempt: r.attempt, Cause: fmt.Sprint(cause)}) {
			return r.err
		}
		rerr := &RetryError{Epoch: r.epoch, Attempts: r.attempt, Cause: cause, Reason: stage}
		r.attempt = 1
		r.emit(Event{Kind: EventGaveUp, Epoch: r.epoch, Attempt: rerr.Attempts, Err: rerr})
		return rerr
	}
	next := r.attempt + 1
	delay := r.backoffDelay(next)
	if !r.journal(Record{T: recRetry, Epoch: r.epoch, Attempt: next, Delay: delay, Cause: fmt.Sprint(cause)}) {
		return r.err
	}
	r.attempt = next
	r.emit(Event{Kind: EventRetry, Epoch: r.epoch, Attempt: next, Delay: delay, Stage: stage})
	return nil
}

// journal appends one controller record, treating any write failure as a
// crash: the runner stops without applying the transition the record
// announced. Returns false when the runner crashed.
func (r *Runner) journal(rec Record) bool {
	if err := r.jw.Commit(rec); err != nil {
		r.crash(fmt.Errorf("control: journal write failed: %w", err))
		return false
	}
	return true
}

func (r *Runner) crash(err error) {
	r.err = err
	r.emit(Event{Kind: EventCrashed, Epoch: r.epoch, Err: err})
}

func (r *Runner) emit(ev Event) {
	if r.cfg.OnEvent != nil {
		r.cfg.OnEvent(ev)
	}
}

// Current returns the layout the journal implies: the base plus every
// committed step of the closed epochs (the open epoch's starting layout).
// Callers must not modify it.
func (r *Runner) Current() *layout.Layout { return r.current }

// Epoch returns the last epoch a cplan opened (0 before any).
func (r *Runner) Epoch() int { return r.epoch }

// Migrating reports whether an epoch's engine is running.
func (r *Runner) Migrating() bool { return r.running }

// Engine returns the latest epoch's engine (running or finished; its Result
// is final once Migrating is false), nil before any epoch started.
func (r *Runner) Engine() *migrate.Engine { return r.engine }

// Err returns the sticky crash error, nil while the runner is healthy.
func (r *Runner) Err() error { return r.err }

// ScratchCapacities returns caps with every failed target's capacity zeroed,
// for scratch selection: after an evacuation the failed device has the most
// free space of all, and AutoScratch must never stage data onto it.
func ScratchCapacities(caps []int64, failed []int) []int64 {
	if len(failed) == 0 {
		return caps
	}
	out := append([]int64(nil), caps...)
	for _, j := range failed {
		if j >= 0 && j < len(out) {
			out[j] = 0
		}
	}
	return out
}
