// Command advbench is the repository's benchmark. For one workload it builds
// the inputs from a workload seed, drives the layout advisor through its
// public surfaces, checks every output, and prints the metrics as one JSON
// object on the last line of standard output. See README.md for the
// workloads, the metrics and the layers they map to.
//
//	go run . --workload paper-advise --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics, writing its spans to
// .bench_build/advbench/spans-<workload>-<seed>.jsonl.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// outDir holds everything a run writes, relative to the checkout root.
var outDir = filepath.Join(".bench_build", "advbench")

type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one benchmark invocation: its settings, its operation counts and
// the metrics it reports.
type run struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	spans     *ledger
	attempted int
	failed    int
	metrics   map[string]metric
}

// set stores a metric of the run's set; its unit comes from the set.
func (r *run) set(name string, value float64) {
	m, ok := r.metrics[name]
	if !ok {
		panic("advbench: unknown metric " + name) // a bug in this program
	}
	m.Value = value
	r.metrics[name] = m
}

// record counts one operation; a non-nil err (the operation failed, was
// refused, or its output failed a check) counts it as failed.
func (r *run) record(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "advbench: %s: %v\n", r.workload, err)
	}
}

// endToEnd and perLayer are the metric sets of the untraced and the traced
// run; every workload reports each of them (see README.md for what each
// means on each workload, and which are 0 where a workload does not reach a
// layer). The wall-time advise latencies are per-layer: on a shared virtual
// machine ten runs of them spread by up to half their median while the
// host stole CPU, too much for a regression bound; CPU time per advise
// spread a quarter as much.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s"},
	{Name: "cpu_ms_per_op", Unit: "ms"},
	{Name: "final_objective", Unit: "utilization"},
	{Name: "peak_heap_mb", Unit: "MB"},
}

var perLayer = []metric{
	{Name: "advise.wall_ms_p50", Unit: "ms"},
	{Name: "advise.wall_ms_tail", Unit: "ms"},
	{Name: "costmodel.calibrate_s", Unit: "s"},
	{Name: "costmodel.lookups", Unit: "count"},
	{Name: "costmodel.lookups_per_eval", Unit: "ratio"},
	{Name: "costmodel.lookup_ns", Unit: "ns"},
	{Name: "layout.seed_s", Unit: "s"},
	{Name: "layout.validate_s", Unit: "s"},
	{Name: "nlp.solve_s", Unit: "s"},
	{Name: "nlp.solves", Unit: "count"},
	{Name: "nlp.evals", Unit: "count"},
	{Name: "nlp.iters", Unit: "count"},
	{Name: "nlp.accept_ratio", Unit: "ratio"},
	{Name: "nlp.evals_per_s", Unit: "1/s"},
	{Name: "core.regularize_s", Unit: "s"},
	{Name: "core.polish_s", Unit: "s"},
	{Name: "core.unattributed_s", Unit: "s"},
	{Name: "core.reported_s", Unit: "s"},
	{Name: "core.wall_s", Unit: "s"},
	{Name: "storage.read_trace_mb_per_s", Unit: "MB/s"},
	{Name: "rubicon.fit_s", Unit: "s"},
	{Name: "server.handler_ms_p50", Unit: "ms"},
	{Name: "server.handler_ms_p90", Unit: "ms"},
	{Name: "server.solve_ms_p50", Unit: "ms"},
	{Name: "server.queue_wait_ms_p50", Unit: "ms"},
	{Name: "server.http_ms_p50", Unit: "ms"},
	{Name: "server.advise_hit_ratio", Unit: "ratio"},
	{Name: "server.fit_hit_ratio", Unit: "ratio"},
	{Name: "server.rejected", Unit: "count"},
	{Name: "server.trace_s_p50", Unit: "s"},
	{Name: "server.migrate_s_p50", Unit: "s"},
	{Name: "server.restart_s", Unit: "s"},
	{Name: "migrate.copy_mb_per_s", Unit: "MB/s"},
	{Name: "wal.journal_bytes", Unit: "bytes"},
	{Name: "wal.journal_frames", Unit: "count"},
	{Name: "loadgen.late_ms_p90", Unit: "ms"},
	{Name: "loadgen.max_rate_rps", Unit: "1/s"},
	{Name: "bench.trace_overhead", Unit: "ratio"},
	{Name: "bench.setup_wall_s", Unit: "s"},
}

var workloads = map[string]func(*run) error{
	"paper-advise":  paperAdvise,
	"fleet-advise":  fleetAdvise,
	"service-mixed": serviceMixed,
}

func main() {
	workload := flag.String("workload", "", "paper-advise, fleet-advise or service-mixed")
	seed := flag.Int64("seed", 1, "workload seed every input is generated from")
	seconds := flag.Float64("seconds", 25, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "advbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", names)
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "advbench:", err)
		os.Exit(1)
	}
	r := &run{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		metrics: map[string]metric{}}
	set := endToEnd
	if r.traced {
		r.spans = newLedger()
		set = perLayer
	}
	for _, m := range set {
		r.metrics[m.Name] = m
	}
	if err := fn(r); err != nil {
		fmt.Fprintln(os.Stderr, "advbench:", err)
		os.Exit(1)
	}
	if r.traced {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", r.workload, r.seed))
		if err := r.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "advbench: writing spans:", err)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(map[string]interface{}{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "advbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if r.failed > 0 {
		os.Exit(1)
	}
}
