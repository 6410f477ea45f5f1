// Command perfbench is the repository's end-to-end benchmark for culpeod:
// two seeded workloads against an in-process serve.Server over loopback
// HTTP, each checking its outputs against the library path. NOTES.md
// describes the workloads, the metrics and how steady they are.
//
//	bash perfbench/run.sh --workload estimate-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
// carrying every end-to-end metric with --trace 0 and every per-layer
// metric with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// e2eUnits lists the end-to-end metrics every untraced run reports.
var e2eUnits = map[string]string{
	"setup_s":             "s",
	"ops_per_s":           "1/s",
	"p50_ms":              "ms",
	"tail_ms":             "ms",
	"event_p50_ms":        "ms",
	"event_tail_ms":       "ms",
	"alloc_kb_per_op":     "KB",
	"heap_kb_per_session": "KB",
}

// layerUnits lists the per-layer metrics every traced run reports. A
// layer a workload's path does not cross reads 0 there.
var layerUnits = map[string]string{
	"load.sample_us":            "us",
	"core.fingerprint_us":       "us",
	"core.lookup_us":            "us",
	"api.decode_us":             "us",
	"api.encode_us":             "us",
	"core.pg_runs_per_op":       "count",
	"core.vsafe_pg_ms":          "ms",
	"core.hit_ratio":            "ratio",
	"core.evictions_per_op":     "count",
	"serve.dedup_ratio":         "ratio",
	"powersys.lane_us":          "us",
	"session.fold_us":           "us",
	"journal.append_ack_us":     "us",
	"journal.fsyncs_per_append": "count",
	"api.sse_encode_us":         "us",
	"journal.bytes_per_obs":     "B",
	"journal.snapshot_mb":       "MB",
	"journal.open_s":            "s",
	"session.replay_s":          "s",
	"host.probe_rate":           "1/s",
	"bench.tail_pct":            "%",
	"bench.event_tail_pct":      "%",
	"bench.first_op_s":          "s",
	"raw.setup_s":               "s",
	"raw.ops_per_s":             "1/s",
	"raw.p50_ms":                "ms",
	"raw.tail_ms":               "ms",
	"raw.event_p50_ms":          "ms",
	"raw.event_tail_ms":         "ms",
	// restart_s is the traced cold journal restart (NOTES.md).
	"restart_s":                "s",
	"trace.unattributed_share": "ratio",
	"trace.overhead_share":     "ratio",
	"trace.spans":              "count",
}

// opts are one run's settings.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
	scratch string // private directory for journals; removed at exit
}

// report is what a workload measured.
type report struct {
	attempted, failed int64
	problems          []string // failed checks, for standard error
	e2e               map[string]float64
	layer             map[string]float64
	lines             []string // human-readable summary lines
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// problem records a failed check (kept short: the first few are printed).
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 1000 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each name to the function that runs it.
var workloads = map[string]func(opts) (*report, error){
	"estimate-hot": runHot,
	"design-sweep": runSweep,
}

// processStart anchors bench.first_op_s.
var processStart = time.Now()

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: estimate-hot | design-sweep")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		scratch = flag.String("scratch", ".bench_build", "directory for the run's private journal files")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	rep, err := fn(opts{seed: *seed, seconds: *seconds, trace: *trace == 1, scratch: dir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, l := range rep.lines {
		fmt.Printf("%s: %s\n", *name, l)
	}
	for i, p := range rep.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "... %d more\n", len(rep.problems)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "check failed: %s\n", p)
	}
	units, values := e2eUnits, rep.e2e
	if *trace == 1 {
		units, values = layerUnits, rep.layer
	}
	out := output{
		Correct:   len(rep.problems) == 0 && rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	var missing []string
	for m, u := range units {
		v, ok := values[m]
		if !ok || v != v { // absent or NaN
			missing = append(missing, m)
			continue
		}
		out.Metrics[m] = metricOut{Value: v, Unit: u}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %v\n", *name, missing)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// journalDir makes a fresh journal directory under the run's scratch.
func journalDir(o opts, name string) (string, error) {
	d := filepath.Join(o.scratch, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}
