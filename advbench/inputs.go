package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"dblayout"
	"dblayout/internal/benchdb"
	"dblayout/internal/costmodel"
	"dblayout/internal/layout"
	"dblayout/internal/replay"
	"dblayout/internal/storage"
)

// Input streams: every generated input draws from its own stream of the
// workload seed, so changing how one input is built never shifts another.
const (
	streamSolver int64 = iota + 1
	streamTenants
	streamSchedule
	streamTraces
)

func rngFor(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// solverSeeds is the fixed solver-seed set of a closed-loop run.
func solverSeeds(seed int64, n int) []int64 {
	rng := rngFor(seed, streamSolver)
	out := make([]int64, n)
	for i := range out {
		out[i] = 1 + rng.Int63n(1<<31)
	}
	return out
}

// calibrate builds a device's cost model on the full calibration grid.
func calibrate(name string) (*costmodel.Model, time.Duration) {
	start := time.Now()
	factory := func(e *storage.Engine) storage.Device {
		return storage.NewDisk(e, "disk", storage.Disk15KConfig())
	}
	if name == "ssd" {
		factory = func(e *storage.Engine) storage.Device {
			return storage.NewSSD(e, "ssd", storage.SSD32Config())
		}
	}
	return costmodel.Calibrate(name, factory, costmodel.DefaultGrid()), time.Since(start)
}

// fitted is a workload set fitted from a simulated trace, the time the fit
// took, and excerpts of the trace.
type fitted struct {
	objects  []layout.Object
	set      *dblayout.WorkloadSet
	excerpts [][]storage.TraceRecord
	fit      time.Duration
}

// traceAndFit replays a workload on four disks under the SEE layout,
// recording the block trace at the workload seed, and fits one Rome
// workload per object from it with dblayout.FitWorkloads. Of the trace it
// keeps only n excerpts of `keep` records, starting at n evenly spaced
// points.
func traceAndFit(seed int64, olap *benchdb.OLAPWorkload, oltp *benchdb.OLTPWorkload, n, keep int, opt dblayout.FitOptions) (*fitted, error) {
	objects := append([]layout.Object{}, olap.Catalog.Objects...)
	if oltp != nil {
		objects = append(objects, oltp.Catalog.Objects...)
	}
	sys := &replay.System{Objects: objects}
	for j := 0; j < 4; j++ {
		sys.Devices = append(sys.Devices, replay.Disk15K(fmt.Sprintf("disk%d", j)))
	}
	see := layout.SEE(len(objects), len(sys.Devices))
	ropt := replay.Options{Seed: seed, RecordTrace: true}
	var res *replay.OLAPResult
	var err error
	if oltp != nil {
		// The paper's consolidation run: OLAP1-21 beside TPC-C, with the
		// Fig. 19 experiment's 120 s tpmC warm-up.
		res, _, err = replay.RunConsolidated(sys, see, olap, oltp, 120, ropt)
	} else {
		res, err = replay.RunOLAP(sys, see, olap, ropt)
	}
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", olap.Name, err)
	}
	names := make([]string, len(objects))
	for i, o := range objects {
		names[i] = o.Name
	}
	start := time.Now()
	set, err := dblayout.FitWorkloads(res.Trace, names, opt)
	if err != nil {
		return nil, fmt.Errorf("fit %s: %w", olap.Name, err)
	}
	f := &fitted{objects: objects, set: set, fit: time.Since(start)}
	recs := res.Trace.Records
	for k := 0; k < n; k++ {
		part := recs[k*len(recs)/n:]
		f.excerpts = append(f.excerpts, append([]storage.TraceRecord(nil), part[:min(keep, len(part))]...))
	}
	return f, nil
}

// fitEach builds n fitted instances, instance k with build(seeds[k]), on
// as many goroutines as there are CPUs. The seeds are drawn before any
// replay runs, so the instances do not depend on the order they finish in.
func fitEach(rng *rand.Rand, n int, build func(k int, seed int64) (*fitted, error)) ([]*fitted, error) {
	seeds := make([]int64, n)
	for k := range seeds {
		seeds[k] = rng.Int63()
	}
	out := make([]*fitted, n)
	errs := make([]error, n)
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for k := range seeds {
		wg.Add(1)
		slots <- struct{}{}
		go func(k int) {
			defer wg.Done()
			defer func() { <-slots }()
			out[k], errs[k] = build(k, seeds[k])
		}(k)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// jsonl encodes trace records in the format dblayout.ReadTrace reads.
func jsonl(recs []storage.TraceRecord) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		_ = enc.Encode(r) // a bytes.Buffer write cannot fail
	}
	return buf.Bytes()
}

// timedReadTrace decodes a JSONL trace and returns how long it took.
func timedReadTrace(raw []byte) (*dblayout.Trace, time.Duration, error) {
	start := time.Now()
	tr, err := dblayout.ReadTrace(bytes.NewReader(raw))
	return tr, time.Since(start), err
}

// perturbed returns a copy of set with every object's request rates scaled
// by its own factor, log-uniform in [lo, hi), then all rescaled to the set's
// total rate, and every temporal overlap between two objects scaled by a
// factor in [0.5, 1.5) (at most 1): a tenant whose hot objects and
// co-access differ from the fitted base at the same overall load.
func perturbed(set *dblayout.WorkloadSet, rng *rand.Rand, lo, hi float64) *dblayout.WorkloadSet {
	ws := make([]*dblayout.Workload, len(set.Workloads))
	var before, after float64
	for i, w := range set.Workloads {
		c := *w
		f := lo * math.Pow(hi/lo, rng.Float64())
		before += c.ReadRate + c.WriteRate
		c.ReadRate *= f
		c.WriteRate *= f
		after += c.ReadRate + c.WriteRate
		c.Overlap = append([]float64(nil), w.Overlap...)
		ws[i] = &c
	}
	if after > 0 {
		for _, w := range ws {
			w.ReadRate *= before / after
			w.WriteRate *= before / after
		}
	}
	for i := range ws {
		for k := i + 1; k < len(ws) && len(ws[i].Overlap) > k; k++ {
			v := math.Min(1, ws[i].Overlap[k]*(0.5+rng.Float64()))
			ws[i].Overlap[k], ws[k].Overlap[i] = v, v
		}
	}
	out, err := dblayout.NewWorkloadSet(ws...)
	if err != nil {
		panic(fmt.Sprintf("scaling a valid set broke it: %v", err)) // a bug, not an input
	}
	return out
}
