package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dblayout"
	"dblayout/internal/benchdb"
	"dblayout/internal/costmodel"
	"dblayout/internal/layout"
	"dblayout/internal/server"
	"dblayout/internal/wal"
)

// Service-mixed sizing. No traffic record of an advisor deployment exists
// in the repository, so the counts below are assumptions, each set by the
// sample a metric needs at --seconds 25 (see README.md).
const (
	// tenantCount tenants, fitted from `bases` independent replays, spread
	// a run over many problems; see traceAndFit.
	tenantCount = 64
	bases       = 8
	// A trace upload is one of `excerpts` stretches of excerptRecords
	// records (~2 MB of JSONL), taken evenly from the replays.
	excerpts       = 8
	excerptRecords = 30000
	traceTenants   = 4 // the tenants that upload traces
	// latencyLimitMS is the service's p90 latency limit for an uncached
	// advise, timed from when the request was due.
	latencyLimitMS = 250
	connections    = 2
	// migrationPoll is how often a migrating tenant's client asks whether
	// the migration is done. Polls share the two connections with the
	// load, so a tighter loop would load the daemon it measures.
	migrationPoll = 25 * time.Millisecond
)

// ladder is the fixed set of offered rates in req/s, nominal first. The
// nominal rate keeps the solver pool lightly loaded, so its latencies are
// service times rather than queueing; the top rung is beyond what one
// solver slot can serve.
var ladder = []float64{15, 30, 60, 120}

// minUncached is the fewest uncached advises a rung offers.
const minUncached = 100

// rungRequests is the number of requests each rung offers. A rung above
// the nominal one offers the requests that carry minUncached uncached
// advises (159); the nominal rung takes the rest of --seconds (235 at
// --seconds 25), so the ladder spans --seconds when every rung runs (below
// ~20 s every rung keeps the minimum and the ladder runs longer). The
// nominal rung's figures are the reported ones, and the longer they are
// measured, the less a few seconds of a shared host's load move them.
func rungRequests(seconds float64) []int {
	above := int(math.Ceil(minUncached / mix[opAdvise].share))
	rest := seconds
	for _, rate := range ladder[1:] {
		rest -= float64(above) / rate
	}
	n := make([]int, len(ladder))
	n[0] = max(above, int(rest*ladder[0]))
	for k := 1; k < len(n); k++ {
		n[k] = above
	}
	return n
}

// Operation mix of the open loop, as shares of a rung's requests.
type opKind int

const (
	opAdvise    opKind = iota // uncached: a fresh seed
	opRepeat                  // the tenant's last advise again: a cache hit
	opWorkloads               // perturbed rates: new version, cache dropped
	opTrace                   // trace excerpt upload: fit, new version
	opMigrate                 // advise with a fresh seed, then migrate to it
)

// mix, indexed by kind: uncached advises get the largest share; trace
// uploads and migrations the smallest shares that give their p50s 8 and 5
// samples in a rung above the nominal one; repeats and workload uploads
// split the rest, so the advise cache sees both hits and invalidations.
var mix = []struct {
	kind  opKind
	share float64
}{
	{opAdvise, 0.63}, {opRepeat, 0.17}, {opWorkloads, 0.12}, {opTrace, 0.05}, {opMigrate, 0.03},
}

type tenant struct {
	id      string
	problem dblayout.Problem // as uploaded; object sizes and capacities never change
	base    *dblayout.WorkloadSet
}

var opNames = map[opKind]string{opAdvise: "advise", opRepeat: "advise_repeat",
	opWorkloads: "workloads", opTrace: "trace", opMigrate: "migrate"}

type op struct {
	index   int // position in the schedule, the request id of its spans
	rung    int
	due     time.Duration // from the start of its rung
	kind    opKind
	tenant  int
	seed    int64
	after   int // index of the previous op on the same tenant, -1 if none
	repeats int // a repeat: index of the advise it repeats
	excerpt int // a trace upload: the excerpt it sends
}

// outcome is what one executed operation measured and answered.
type outcome struct {
	fromDue   time.Duration // completion - due: what the caller waited
	client    time.Duration // completion - send
	handlerMS float64       // the advise response's elapsed_ms
	objective float64
	rows      interface{} // the advised layout as answered
	cached    bool
	sent      *dblayout.WorkloadSet // a workload upload: the set sent
	bytes     float64               // migration: committed bytes
	err       error
}

type service struct {
	r        *run
	url      string
	client   *http.Client
	tenants  []*tenant
	excerpts [][]byte // trace upload bodies, by op.excerpt
	disk     *costmodel.Model
}

func serviceMixed(r *run) error {
	clock := startSetup()
	disk, calib := calibrate("disk15k")
	s := &service{r: r, disk: disk}
	fits, err := s.traceAndFit()
	if err != nil {
		return err
	}
	docs, err := s.buildTenants(fits)
	if err != nil {
		return err
	}
	dir := filepath.Join(outDir, fmt.Sprintf("data-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	defer d.close()
	s.url = d.url
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections}}
	defer s.client.CloseIdleConnections()
	for i, t := range s.tenants {
		code, _, err := s.do("PUT", "/v1/tenants/"+t.id, docs[i])
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d", code)
		}
		if err != nil {
			return fmt.Errorf("uploading tenant %s: %w", t.id, err)
		}
	}
	setup := clock.stop()

	runtime.GC() // the set-up's trace is garbage; measure the service's heap
	heap := startHeapSampler()
	loadStart := time.Now()
	ops, outs, maxRate, late, nominalCPU := s.ladder(s.schedule())
	heap.halt()
	var seconds []window
	for t := loadStart; t.Before(time.Now()); t = t.Add(time.Second) {
		seconds = append(seconds, window{t, t.Add(time.Second)})
	}
	peak := heap.medianPeakMB(seconds)
	if err := s.check(ops, outs); err != nil {
		return err
	}

	before, err := s.states()
	if err != nil {
		return err
	}
	var prom string
	if r.traced {
		if prom, err = s.text("/metrics"); err != nil {
			return err
		}
	}
	d.close()
	restartStart := time.Now()
	d, err = startDaemon(dir)
	if err != nil {
		return fmt.Errorf("restarting: %w", err)
	}
	defer d.close()
	s.url = d.url
	after, err := s.states()
	if err != nil {
		return fmt.Errorf("after restart: %w", err)
	}
	restart := time.Since(restartStart)
	for i, t := range s.tenants {
		var err error
		if !reflect.DeepEqual(before[i], after[i]) {
			err = fmt.Errorf("tenant %s: state before restart %+v, after %+v", t.id, before[i], after[i])
		}
		r.record(err)
	}

	// Latency and CPU time at the nominal rate; objectives of every
	// uncached advise (no solve budget binds, so they do not depend on the
	// offered rate).
	var nominal, objs []float64
	nominalOps := 0
	for i, o := range ops {
		if o.kind == opAdvise {
			objs = append(objs, outs[i].objective)
		}
		if o.rung == 0 {
			nominalOps++
			if o.kind == opAdvise {
				nominal = append(nominal, outs[i].fromDue.Seconds()*1e3)
			}
		}
	}
	setup.set(r)
	if !r.traced {
		r.set("cpu_ms_per_op", nominalCPU.Seconds()*1e3/float64(nominalOps))
		r.set("final_objective", quantile(objs, 0.5))
		r.set("peak_heap_mb", peak)
		return nil
	}
	r.set("advise.wall_ms_p50", quantile(nominal, 0.5))
	r.set("advise.wall_ms_tail", quantile(nominal, 0.9))
	r.set("costmodel.calibrate_s", calib.Seconds())
	r.set("server.restart_s", restart.Seconds())
	r.set("loadgen.max_rate_rps", maxRate)
	r.set("loadgen.late_ms_p90", late)
	return s.traceLayers(ops, outs, prom, dir, after)
}

// traceAndFit replays OLAP8-63's query stream, in a seeded order, as
// `bases` consecutive parts, each at its own seed, and fits each part.
// Solve effort hinges on which objects co-run, so tenants drawn from several
// independent replays keep a run's latencies from hinging on one fit.
func (s *service) traceAndFit() ([]*fitted, error) {
	w := benchdb.OLAP863()
	queries := append([]benchdb.Query(nil), w.Queries...)
	rng := rngFor(s.r.seed, streamTraces)
	rng.Shuffle(len(queries), func(a, b int) { queries[a], queries[b] = queries[b], queries[a] })
	fits, err := fitEach(rng, bases, func(g int, seed int64) (*fitted, error) {
		part := *w
		part.Queries = queries[g*len(queries)/bases : (g+1)*len(queries)/bases]
		return traceAndFit(seed, &part, nil, excerpts/bases, excerptRecords, dblayout.FitOptions{ActiveRates: true})
	})
	if err != nil {
		return nil, err
	}
	for _, f := range fits {
		for _, h := range f.excerpts {
			s.excerpts = append(s.excerpts, jsonl(h))
		}
	}
	return fits, nil
}

// buildTenants makes the tenant documents: OLAP8-63's 20 objects on four
// disk15k targets whose calibrated table travels inline as model_json.
// Tenant k's workloads are fit k%len(fits), rescaled per tenant.
func (s *service) buildTenants(fits []*fitted) ([][]byte, error) {
	model, err := json.Marshal(s.disk)
	if err != nil {
		return nil, err
	}
	rng := rngFor(s.r.seed, streamTenants)
	type object struct {
		Name   string `json:"name"`
		SizeMB int64  `json:"size_mb"`
		Kind   string `json:"kind"`
	}
	type target struct {
		Name       string          `json:"name"`
		CapacityMB int64           `json:"capacity_mb"`
		ModelJSON  json.RawMessage `json:"model_json"`
	}
	const capacityMB = 18<<10 + 410 // one 18.4 GB disk15k
	var docs [][]byte
	for k := 0; k < tenantCount; k++ {
		f := fits[k%len(fits)]
		t := &tenant{id: fmt.Sprintf("t%02d", k), base: perturbed(f.set, rng, 0.25, 4)}
		var objs []object
		for _, o := range f.objects {
			mb := o.Size >> 20
			objs = append(objs, object{o.Name, mb, o.Kind.String()})
			t.problem.Objects = append(t.problem.Objects, layout.Object{Name: o.Name, Size: mb << 20, Kind: o.Kind})
		}
		var tgts []target
		for j := 0; j < 4; j++ {
			name := fmt.Sprintf("disk%d", j)
			tgts = append(tgts, target{name, capacityMB, model})
			t.problem.Targets = append(t.problem.Targets, &layout.Target{Name: name, Capacity: capacityMB << 20, Model: s.disk})
		}
		t.problem.Workloads = t.base
		doc, err := json.Marshal(map[string]interface{}{"objects": objs, "targets": tgts, "workloads": t.base})
		if err != nil {
			return nil, err
		}
		s.tenants = append(s.tenants, t)
		docs = append(docs, doc)
	}
	return docs, nil
}

// daemon is an in-process advisord served on a loopback port.
type daemon struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{}
	once sync.Once
}

func startDaemon(dir string) (*daemon, error) {
	srv, err := server.New(server.Options{DataDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return d, nil
}

// close stops serving, waits for open requests, then closes the server.
func (d *daemon) close() {
	d.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = d.http.Shutdown(ctx) // on timeout Close below still stops it
		_ = d.http.Close()
		<-d.done
		d.srv.Close()
	})
}

// text fetches a plain-text page.
func (s *service) text(path string) (string, error) {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return string(raw), err
}

// do sends one request and decodes the JSON answer.
func (s *service) do(method, path string, body []byte) (int, map[string]interface{}, error) {
	req, err := http.NewRequest(method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	var out map[string]interface{}
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(raw, &out); err != nil {
			return resp.StatusCode, nil, fmt.Errorf("decoding %s %s: %w", method, path, err)
		}
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, out, fmt.Errorf("%s %s: status %d: %v", method, path, resp.StatusCode, out["error"])
	}
	return resp.StatusCode, out, nil
}

// schedule lays out the open-loop requests: evenly spaced at each rung's
// rate, each kind spread evenly over the rung, tenants dealt round-robin in
// a seeded order so consecutive requests rarely share a tenant.
func (s *service) schedule() []op {
	rng := rngFor(s.r.seed, streamSchedule)
	sizes := rungRequests(s.r.seconds)
	var ops []op
	last := make([]int, tenantCount)    // last op per tenant
	advised := make([]int, tenantCount) // last advise per tenant while current, -1 when stale
	for i := range last {
		last[i], advised[i] = -1, -1
	}
	order := rng.Perm(tenantCount)
	next, traces := 0, 0
	for rung, rate := range ladder {
		n := sizes[rung]
		// Each kind's requests are spread evenly over the rung from a
		// seeded phase, so the heavy ones (trace fits, migrations) overlap
		// about as many advises on every seed.
		type slot struct {
			at   float64
			kind opKind
		}
		var slots []slot
		for _, m := range mix {
			c := int(m.share*float64(n) + 0.5)
			phase := rng.Float64()
			for j := 0; j < c; j++ {
				slots = append(slots, slot{(float64(j) + phase) / float64(c), m.kind})
			}
		}
		sort.SliceStable(slots, func(a, b int) bool { return slots[a].at < slots[b].at })
		kinds := make([]opKind, len(slots))
		for i, sl := range slots {
			kinds[i] = sl.kind
		}
		gap := time.Duration(float64(time.Second) / rate)
		for i, kind := range kinds {
			o := op{index: len(ops), rung: rung, due: time.Duration(i) * gap, kind: kind,
				seed: 1 + rng.Int63n(1<<40), tenant: -1, repeats: -1}
			if kind == opRepeat {
				// Repeat a tenant whose last advise is still current.
				var fresh []int
				for t, a := range advised {
					if a >= 0 {
						fresh = append(fresh, t)
					}
				}
				if len(fresh) > 0 {
					o.tenant = fresh[rng.Intn(len(fresh))]
					o.repeats = advised[o.tenant]
					o.seed = ops[o.repeats].seed
				} else {
					o.kind = opAdvise
				}
			}
			switch {
			case o.kind == opTrace:
				// Trace uploads come in pairs to one of a few tenants.
				// The first sends an excerpt other than the tenant's last,
				// which the daemon fits; the second repeats it, a fit-cache
				// hit. So every rung fits about as many traces.
				pair := traces / 2
				o.tenant = order[pair%traceTenants]
				o.excerpt = pair % excerpts
				traces++
			case o.tenant < 0:
				o.tenant = order[next%tenantCount]
				next++
			}
			switch o.kind {
			case opAdvise:
				advised[o.tenant] = o.index
			case opWorkloads, opTrace, opMigrate:
				advised[o.tenant] = -1
			}
			o.after = last[o.tenant]
			last[o.tenant] = len(ops)
			ops = append(ops, o)
		}
	}
	return ops
}

// ladder runs the open loop. Each request is sent when it is due (after
// the tenant's previous request has completed: a tenant's client waits for
// its own answers) over a transport of `connections` connections, and is
// timed from when it was due. A rung starts once the previous one has
// drained. A rung that misses the latency limit, or whose latency is still
// growing at its end, ends the ladder; the requests of later rungs are not
// attempted. Answers are checked afterwards (see check), so checking costs
// the load nothing. nominalCPU is the process's CPU time over the nominal
// rung.
func (s *service) ladder(ops []op) (ran []op, outs []outcome, maxRate, lateP90 float64, nominalCPU time.Duration) {
	outs = make([]outcome, len(ops))
	done := make([]chan struct{}, len(ops))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	rungEnd := 0
	var lates []float64
	for rung, rate := range ladder {
		first := rungEnd
		for rungEnd < len(ops) && ops[rungEnd].rung == rung {
			rungEnd++
		}
		start, cpu := time.Now(), cpuTime()
		for i := first; i < rungEnd; i++ {
			if wait := ops[i].due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			lates = append(lates, (time.Since(start)-ops[i].due).Seconds()*1e3)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer close(done[i])
				if a := ops[i].after; a >= 0 {
					<-done[a]
				}
				outs[i] = s.execute(ops[i], start)
			}(i)
		}
		wg.Wait()
		if rung == 0 {
			nominalCPU = cpuTime() - cpu
		}
		var adv, tail []float64
		for i := first; i < rungEnd; i++ {
			if ops[i].kind != opAdvise {
				continue
			}
			ms := outs[i].fromDue.Seconds() * 1e3
			if outs[i].err != nil {
				ms = math.Inf(1) // a failed request misses any limit
			}
			adv = append(adv, ms)
			if i >= first+3*(rungEnd-first)/4 {
				tail = append(tail, ms)
			}
		}
		if quantile(adv, 0.9) > latencyLimitMS || quantile(tail, 0.9) > latencyLimitMS {
			ops, outs = ops[:rungEnd], outs[:rungEnd]
			break
		}
		maxRate = rate
	}
	return ops, outs, maxRate, quantile(lates, 0.9), nominalCPU
}

// execute performs one operation and keeps its answer. Request bodies are
// built before the clock starts.
func (s *service) execute(o op, start time.Time) outcome {
	t := s.tenants[o.tenant]
	path := "/v1/tenants/" + t.id
	var out outcome
	var body []byte
	switch o.kind {
	case opAdvise, opRepeat:
		body, _ = json.Marshal(map[string]int64{"seed": o.seed})
		path += "/advise"
	case opWorkloads:
		out.sent = perturbed(t.base, rand.New(rand.NewSource(o.seed)), 0.8, 1.25)
		body, _ = json.Marshal(out.sent)
		path += "/workloads"
	case opTrace:
		body = s.excerpts[o.excerpt]
		path += "/trace"
	}
	var resp map[string]interface{}
	sent := time.Now()
	if o.kind == opMigrate {
		out.bytes, out.err = s.migrate(t, o.seed)
	} else {
		_, resp, out.err = s.do("POST", path, body)
	}
	out.client = time.Since(sent)
	out.fromDue = time.Since(start) - o.due
	s.r.spans.add(0, int64(o.index+1), "http."+opNames[o.kind], sent, sent.Add(out.client))
	if out.err != nil {
		return out
	}
	switch o.kind {
	case opAdvise, opRepeat:
		out.handlerMS, _ = resp["elapsed_ms"].(float64)
		out.objective, _ = resp["objective"].(float64)
		out.cached, _ = resp["cached"].(bool)
		out.rows = resp["rows"]
	case opWorkloads, opTrace:
		if resp["workloads"] != float64(len(t.problem.Objects)) {
			out.err = fmt.Errorf("%s upload to %s answered %v", opNames[o.kind], t.id, resp)
		}
	}
	return out
}

// check checks every answer of the load in schedule order and records each
// operation. It follows each tenant's workloads through its uploads (a
// workload upload installs the set it sent, a trace upload the set fitted
// from its excerpt, fitted here as the daemon fits it), so each advise
// answer is checked against the workloads it was computed for.
func (s *service) check(ops []op, outs []outcome) error {
	current := make([]*dblayout.WorkloadSet, len(s.tenants))
	for k, t := range s.tenants {
		current[k] = t.base
	}
	fits := map[int]*dblayout.WorkloadSet{} // by excerpt
	for i, o := range ops {
		out := &outs[i]
		err := out.err
		if err == nil {
			switch o.kind {
			case opAdvise, opRepeat:
				var orig *outcome
				if o.kind == opRepeat {
					orig = &outs[o.repeats]
				}
				err = s.checkAdvise(s.tenants[o.tenant], current[o.tenant], out, orig)
			case opWorkloads:
				current[o.tenant] = out.sent
			case opTrace:
				k := o.excerpt
				if fits[k] == nil {
					tr, err := dblayout.ReadTrace(bytes.NewReader(s.excerpts[k]))
					if err != nil {
						return err
					}
					if fits[k], err = dblayout.FitWorkloads(tr, s.tenants[o.tenant].base.Names(), dblayout.FitOptions{ActiveRates: true}); err != nil {
						return err
					}
				}
				current[o.tenant] = fits[k]
			}
		}
		s.r.record(err)
	}
	return nil
}

// checkAdvise checks that an advise answer is a valid layout for the
// tenant's problem under workloads ws, that its objective is the layout's
// maximum utilization, and that a repeat was served from the cache with the
// answer it repeats (orig) and a fresh advise was not.
func (s *service) checkAdvise(t *tenant, ws *dblayout.WorkloadSet, out, orig *outcome) error {
	if out.cached != (orig != nil) {
		return fmt.Errorf("tenant %s: advise cached=%v, want %v", t.id, out.cached, orig != nil)
	}
	l, err := rowsLayout(out.rows, len(t.problem.Objects), len(t.problem.Targets))
	if err != nil {
		return fmt.Errorf("tenant %s: %w", t.id, err)
	}
	p := t.problem
	p.Workloads = ws
	if err := checkObjective(p, l, out.objective); err != nil {
		return fmt.Errorf("tenant %s: %w", t.id, err)
	}
	if orig != nil && (out.objective != orig.objective || !reflect.DeepEqual(out.rows, orig.rows)) {
		return fmt.Errorf("tenant %s: cached advise answered objective %v, the advise it repeats %v",
			t.id, out.objective, orig.objective)
	}
	return nil
}

func rowsLayout(v interface{}, n, m int) (*dblayout.Layout, error) {
	rows, ok := v.([]interface{})
	if !ok || len(rows) != n {
		return nil, fmt.Errorf("layout has %v rows, want %d", v, n)
	}
	l := layout.New(n, m)
	for i, row := range rows {
		fr, ok := row.([]interface{})
		if !ok || len(fr) != m {
			return nil, fmt.Errorf("layout row %d is %v, want %d fractions", i, row, m)
		}
		for j, x := range fr {
			f, ok := x.(float64)
			if !ok {
				return nil, fmt.Errorf("layout row %d: fraction %v", i, x)
			}
			l.Set(i, j, f)
		}
	}
	return l, nil
}

// migrate asks the daemon to advise and migrate to the answer, then waits
// until the migration is done and its layout installed. It returns the
// committed bytes.
func (s *service) migrate(t *tenant, seed int64) (float64, error) {
	path := "/v1/tenants/" + t.id
	body, _ := json.Marshal(map[string]int64{"seed": seed})
	_, resp, err := s.do("POST", path+"/migrate", body)
	if err != nil {
		return 0, err
	}
	if started, _ := resp["started"].(bool); !started {
		return 0, nil // already at the advised layout
	}
	version, _ := resp["version"].(float64)
	var committed float64
	for {
		_, m, err := s.do("GET", path+"/migration", nil)
		if err != nil {
			return 0, err
		}
		if aborted, _ := m["aborted"].(bool); aborted {
			return 0, fmt.Errorf("tenant %s: migration aborted: %v", t.id, m["error"])
		}
		if active, _ := m["active"].(bool); !active {
			if isDone, _ := m["done"].(bool); !isDone {
				return 0, fmt.Errorf("tenant %s: migration ended without done: %v", t.id, m)
			}
			committed, _ = m["committed_bytes"].(float64)
			break
		}
		time.Sleep(migrationPoll)
	}
	// The migrated layout is installed as a new version just after the
	// epoch closes; wait for it so the tenant's next request sees it.
	for {
		_, g, err := s.do("GET", path, nil)
		if err != nil {
			return 0, err
		}
		if v, _ := g["version"].(float64); v > version {
			return committed, nil
		}
		time.Sleep(migrationPoll / 5)
	}
}

// tenantState is what a tenant reports about its data: the layout it
// occupies and the migration epochs its journal holds.
type tenantState struct {
	Current interface{}
	Epochs  float64
}

func (s *service) states() ([]tenantState, error) {
	out := make([]tenantState, len(s.tenants))
	for i, t := range s.tenants {
		_, g, err := s.do("GET", "/v1/tenants/"+t.id, nil)
		if err != nil {
			return nil, err
		}
		out[i].Current = g["current"]
		out[i].Epochs, _ = g["epochs"].(float64)
	}
	return out, nil
}

// traceLayers reports the service's per-layer metrics: the server-side
// split of the advise latency, the caches, migrations, the journals, and
// the advisor layers of the tenants' problems solved directly.
func (s *service) traceLayers(ops []op, outs []outcome, prom string, dir string, states []tenantState) error {
	r := s.r
	var handler, httpMS, traceS, migS []float64
	var copyBytes, copyS float64
	for i, o := range ops {
		out := outs[i]
		switch {
		case o.kind == opAdvise && o.rung == 0:
			handler = append(handler, out.handlerMS)
			httpMS = append(httpMS, out.client.Seconds()*1e3-out.handlerMS)
		case o.kind == opTrace:
			traceS = append(traceS, out.client.Seconds())
		case o.kind == opMigrate && out.bytes > 0:
			migS = append(migS, out.client.Seconds())
			copyBytes += out.bytes
			copyS += out.client.Seconds()
		}
	}
	r.set("server.handler_ms_p50", quantile(handler, 0.5))
	r.set("server.handler_ms_p90", quantile(handler, 0.9))
	r.set("server.http_ms_p50", quantile(httpMS, 0.5))
	r.set("server.trace_s_p50", quantile(traceS, 0.5))
	r.set("server.migrate_s_p50", quantile(migS, 0.5))
	r.set("migrate.copy_mb_per_s", ratio(copyBytes/(1<<20), copyS))
	counter := func(name string) float64 { return promValue(prom, name) }
	r.set("server.advise_hit_ratio", ratio(counter("server_advise_cache_hits_total"),
		counter("server_advise_cache_hits_total")+counter("server_advise_cache_misses_total")))
	r.set("server.fit_hit_ratio", ratio(counter("server_fit_cache_hits_total"),
		counter("server_fit_cache_hits_total")+counter("server_fit_cache_misses_total")))
	r.set("server.rejected", counter("server_rejected_total"))

	var bytesTotal, frames, epochs float64
	for _, st := range states {
		epochs += st.Epochs
	}
	journals, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil {
		return err
	}
	for _, path := range journals {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fr, err := wal.Frames(data)
		if err != nil {
			return fmt.Errorf("journal %s: %w", path, err)
		}
		bytesTotal += float64(len(data))
		frames += float64(len(fr))
	}
	r.set("wal.journal_bytes", ratio(bytesTotal, epochs))
	r.set("wal.journal_frames", ratio(frames, epochs))

	// The trace uploads, decoded and fitted directly.
	var mb, readS float64
	var fits []float64
	for _, raw := range s.excerpts {
		tr, read, err := timedReadTrace(raw)
		if err != nil {
			return err
		}
		mb += float64(len(raw)) / (1 << 20)
		readS += read.Seconds()
		start := time.Now()
		if _, err := dblayout.FitWorkloads(tr, s.tenants[0].base.Names(), dblayout.FitOptions{ActiveRates: true}); err != nil {
			return err
		}
		fits = append(fits, time.Since(start).Seconds())
	}
	r.set("storage.read_trace_mb_per_s", ratio(mb, readS))
	r.set("rubicon.fit_s", quantile(fits, 0.5))

	// The tenants' problems advised directly, as the daemon's pool does
	// (one worker per solve), untraced and traced.
	var acc tracedCalls
	seeds := solverSeeds(r.seed, 2*len(s.tenants))
	req := int64(len(ops))
	for k, t := range s.tenants {
		w := &closedWorkload{cases: []closedCase{{t.problem, recommend(t.problem, dblayout.Options{Workers: 1})}}}
		for _, sd := range seeds[2*k : 2*k+2] {
			req++
			if err := w.tracedPair(r, 0, sd, req, &acc); err != nil {
				return err
			}
		}
	}
	acc.set(r)
	solve := 1e3 * quantile(acc.plain, 0.5)
	r.set("server.solve_ms_p50", solve)
	r.set("server.queue_wait_ms_p50", quantile(handler, 0.5)-solve)
	return nil
}

// promValue returns the value of an unlabelled sample in Prometheus text.
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			var v float64
			if _, err := fmt.Sscan(f[1], &v); err == nil {
				return v
			}
		}
	}
	return 0
}
