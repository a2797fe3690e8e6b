package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"dblayout"
	"dblayout/internal/benchdb"
	"dblayout/internal/core"
	"dblayout/internal/costmodel"
	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
	"dblayout/internal/nlp"
)

// adviser runs one advise call; a non-nil probe instruments it.
type adviser func(ctx context.Context, solverSeed int64, p *probe) (*dblayout.Recommendation, error)

// closedCase is one problem of a closed-loop workload and its adviser.
type closedCase struct {
	problem dblayout.Problem
	advise  adviser
}

// closedWorkload is a closed-loop workload: one caller, one advise call at
// a time, over problems built once; call i advises cases[i%len(cases)].
type closedWorkload struct {
	cases    []closedCase
	seedSet  int // size of the fixed solver-seed set every run completes
	setup    setupTimes
	calib    time.Duration
	fitS     float64 // median FitWorkloads time of an instance
	readMBps float64
}

// paperAdvise is the paper's Fig. 19 consolidation instance: N=40 objects
// fitted from a simulated OLAP1-21 + OLTP trace, on M=4 disk15k targets
// calibrated on the default grid, advised with default options. A run
// fits four such instances, each from its own trace, and advises them in
// turn: solve effort differs by a fifth from one fitted instance to the
// next, which one instance a run would carry into its median whole. (The
// M=20 row takes 6-18 s a call depending on the solver seed, too few calls
// in a run for a steady median; M=4 runs the same code ~75 times.)
func paperAdvise(r *run) error {
	clock := startSetup()
	disk, calib := calibrate("disk15k")
	w := &closedWorkload{seedSet: 2 * paperInstances, calib: calib}
	fits, err := fitEach(rngFor(r.seed, streamTraces), paperInstances, func(_ int, seed int64) (*fitted, error) {
		return traceAndFit(seed, benchdb.OLAP121(), benchdb.OLTP(), 1, 20000, dblayout.FitOptions{})
	})
	if err != nil {
		return err
	}
	var fitS []float64
	for _, f := range fits {
		targets := make([]*layout.Target, 4)
		for j := range targets {
			// Roomy, identically modelled disks, as the Fig. 19 study uses.
			targets[j] = &layout.Target{Name: fmt.Sprintf("disk%d", j), Capacity: 64 << 30, Model: disk}
		}
		p := dblayout.Problem{Objects: f.objects, Targets: targets, Workloads: f.set}
		w.cases = append(w.cases, closedCase{p, recommend(p, dblayout.Options{})})
		fitS = append(fitS, f.fit.Seconds())
	}
	w.setup = clock.stop()
	w.fitS = quantile(fitS, 0.5)
	if r.traced {
		raw := jsonl(fits[0].excerpts[0])
		_, read, err := timedReadTrace(raw)
		if err != nil {
			return err
		}
		w.readMBps = float64(len(raw)) / (1 << 20) / read.Seconds()
	}
	return w.run(r)
}

// paperInstances is the number of fitted Fig. 19 instances a paper-advise
// run advises in turn.
const paperInstances = 4

// fleetAdvise is the layouttest.Fleet(10000, 1000) block-sparse instance with
// its targets re-pointed at the calibrated disk15k and SSD tables, solved as
// the fleet study's transfer+prune case.
func fleetAdvise(r *run) error {
	clock := startSetup()
	disk, calDisk := calibrate("disk15k")
	ssd, calSSD := calibrate("ssd")
	inst := layouttest.Fleet(10000, 1000)
	for j, t := range inst.Targets {
		var m *costmodel.Model = disk
		if j%2 == 1 {
			m = ssd
		}
		t.Model = m
	}
	p := dblayout.Problem{Objects: inst.Objects, Targets: inst.Targets, Workloads: inst.Workloads}
	// One 7-16 s call is the fixed set; a run makes one or two. The
	// instance is fixed, and the answer does not depend on the solver seed.
	w := &closedWorkload{seedSet: 1, calib: calDisk + calSSD}
	advise := func(ctx context.Context, s int64, pr *probe) (*dblayout.Recommendation, error) {
		in := instanceOf(p)
		opt := core.Options{
			Solver:     core.SolverTransfer,
			Rounds:     1,
			SkipPolish: true,
			NLP: nlp.Options{
				Seed: s, Restarts: nlp.NoRestarts, MaxIters: 256,
				PruneObjects: 64, PruneTargets: 16,
			},
		}
		if pr != nil {
			in.Targets = pr.wrapTargets(p.Targets)
			opt.Logger, opt.NLP.Trace = pr.logger(), pr.hook
		}
		adv, err := core.New(in, opt)
		if err != nil {
			return nil, err
		}
		return adv.RecommendContext(ctx)
	}
	w.cases = []closedCase{{p, advise}}
	w.setup = clock.stop()
	return w.run(r)
}

// recommend is the dblayout.RecommendContext adviser for a problem.
func recommend(p dblayout.Problem, base dblayout.Options) adviser {
	return func(ctx context.Context, s int64, pr *probe) (*dblayout.Recommendation, error) {
		q, opt := p, base
		opt.Seed = s
		if pr != nil {
			q.Targets = pr.wrapTargets(p.Targets)
			opt.Logger, opt.Trace = pr.logger(), pr.hook
		}
		return dblayout.RecommendContext(ctx, q, opt)
	}
}

func instanceOf(p dblayout.Problem) *layout.Instance {
	return &layout.Instance{Objects: p.Objects, Targets: p.Targets, Workloads: p.Workloads,
		StripeSize: p.StripeSize, Constraints: p.Constraints}
}

// verify re-validates a recommendation through dblayout.Utilizations and
// checks that the predicted maximum is the objective it reported.
func verify(p dblayout.Problem, rec *dblayout.Recommendation) error {
	if rec.Degraded {
		return fmt.Errorf("degraded recommendation: %v", rec.Degradation)
	}
	return checkObjective(p, rec.Final, rec.FinalObjective)
}

// checkObjective checks that l is a valid layout for p and that its maximum
// predicted utilization is obj.
func checkObjective(p dblayout.Problem, l *dblayout.Layout, obj float64) error {
	us, err := dblayout.Utilizations(p, l)
	if err != nil {
		return fmt.Errorf("layout invalid: %w", err)
	}
	max := 0.0
	for _, u := range us {
		max = math.Max(max, u)
	}
	if math.Abs(max-obj) > 1e-9*math.Max(1, max) {
		return fmt.Errorf("max utilization %.12g != reported objective %.12g", max, obj)
	}
	return nil
}

type callResult struct {
	wall     time.Duration
	reported time.Duration // SolveTime + RegularizeTime, the Fig. 19 figure
	obj      float64
	digest   string
}

// call runs and checks advise call i.
func (w *closedWorkload) call(r *run, i int, s int64, pr *probe) (callResult, error) {
	c := w.cases[i%len(w.cases)]
	start := time.Now()
	rec, err := c.advise(context.Background(), s, pr)
	wall := time.Since(start)
	if err == nil {
		err = verify(c.problem, rec)
	}
	r.record(err)
	if err != nil {
		return callResult{}, fmt.Errorf("advise seed %d: %w", s, err)
	}
	return callResult{wall: wall, reported: rec.SolveTime + rec.RegularizeTime,
		obj: rec.FinalObjective, digest: digest(rec.Final)}, nil
}

func (w *closedWorkload) run(r *run) error {
	seeds := solverSeeds(r.seed, w.seedSet)
	runtime.GC() // the set-up's trace is garbage; measure the advisor's heap
	heap := startHeapSampler()
	var walls, objs []float64
	var calls []window
	var elapsed time.Duration
	cpu := cpuTime()
	// The fixed seed set always runs; further calls, continuing the seed
	// stream, run while one more is expected to end within --seconds.
	for i, s := range solverSeeds(r.seed, 1024) {
		if i >= len(seeds) && elapsed.Seconds()*float64(i+1)/float64(i) > r.seconds {
			break
		}
		start := time.Now()
		c, err := w.call(r, i, s, nil)
		calls = append(calls, window{start, time.Now()})
		if err != nil {
			heap.halt()
			return err
		}
		elapsed += c.wall
		walls = append(walls, c.wall.Seconds())
		if i < len(seeds) {
			objs = append(objs, c.obj)
		}
	}
	cpu = cpuTime() - cpu
	heap.halt()
	w.setup.set(r)
	if !r.traced {
		r.set("cpu_ms_per_op", cpu.Seconds()*1e3/float64(len(walls)))
		r.set("final_objective", mean(objs))
		r.set("peak_heap_mb", heap.medianPeakMB(calls))
		return nil
	}
	r.set("advise.wall_ms_p50", 1e3*quantile(walls, 0.5))
	// p80: a run holds ~75 calls, so ten or more lie beyond it.
	r.set("advise.wall_ms_tail", 1e3*quantile(walls, 0.8))

	// The first half of the seed set, each advised untraced and traced.
	var acc tracedCalls
	for i, s := range seeds[:max(1, len(seeds)/2)] {
		if err := w.tracedPair(r, i, s, int64(i+1), &acc); err != nil {
			return err
		}
	}
	r.set("costmodel.calibrate_s", w.calib.Seconds())
	r.set("rubicon.fit_s", w.fitS)
	r.set("storage.read_trace_mb_per_s", w.readMBps)
	acc.set(r)
	return nil
}

// tracedCalls accumulates traced advise calls and their untraced twins.
type tracedCalls struct {
	traced    layerTotals
	seed      time.Duration // direct layout.InitialLayout calls
	plain     []float64     // untraced wall seconds
	plainWall time.Duration
	reported  time.Duration
	tuples    []tuple
}

// tracedPair runs call i untraced and then traced, checks that tracing did
// not change a single bit of the layout, and records the traced call's
// spans under request id req.
func (w *closedWorkload) tracedPair(r *run, i int, s, req int64, acc *tracedCalls) error {
	base, err := w.call(r, i, s, nil)
	if err != nil {
		return err
	}
	acc.plain = append(acc.plain, base.wall.Seconds())
	acc.plainWall += base.wall
	acc.reported += base.reported

	// The heuristic initial layout, the advisor's seed phase, timed as
	// the program computes it before solving.
	start := time.Now()
	if _, err := layout.InitialLayout(instanceOf(w.cases[i%len(w.cases)].problem)); err != nil {
		return err
	}
	acc.seed += time.Since(start)
	r.spans.add(0, req, "layout.initial", start, time.Now())

	pr := &probe{}
	start = time.Now()
	c, err := w.call(r, i, s, pr)
	if err != nil {
		return err
	}
	id := r.spans.add(0, req, "advise", start, start.Add(c.wall))
	pr.spanPhases(r.spans, id, req)
	acc.traced.addProbe(pr, c.wall)
	acc.tuples = append(acc.tuples, pr.tuples.tuples...)
	var mismatch error
	if base.digest != c.digest {
		mismatch = fmt.Errorf("seed %d: traced layout %s differs from untraced %s", s, c.digest, base.digest)
	}
	r.record(mismatch)
	return nil
}

// set reports the costmodel, layout, nlp and core metrics of the calls.
func (acc *tracedCalls) set(r *run) {
	t := &acc.traced
	r.set("costmodel.lookups", float64(t.lookups))
	r.set("costmodel.lookups_per_eval", ratio(float64(t.lookups), float64(t.evals)))
	r.set("costmodel.lookup_ns", lookupNS(acc.tuples))
	r.set("layout.seed_s", acc.seed.Seconds())
	r.set("layout.validate_s", t.validate.Seconds())
	r.set("nlp.solve_s", t.solve.Seconds())
	r.set("nlp.solves", float64(t.solves))
	r.set("nlp.evals", float64(t.evals))
	r.set("nlp.iters", float64(t.iters))
	r.set("nlp.accept_ratio", ratio(float64(t.accepted), float64(t.iters)))
	r.set("nlp.evals_per_s", ratio(float64(t.evals), t.solve.Seconds()))
	r.set("core.regularize_s", t.regularize.Seconds())
	r.set("core.polish_s", t.polish.Seconds())
	// The advise spans' self time: wall time no phase span covers.
	r.set("core.unattributed_s", r.spans.selfTimes()["advise"])
	r.set("core.reported_s", acc.reported.Seconds())
	r.set("core.wall_s", acc.plainWall.Seconds())
	r.set("bench.trace_overhead", ratio(t.wall.Seconds(), acc.plainWall.Seconds()))
}
