// Command perfbench is the repository's benchmark: one process that runs
// one seeded workload against the public Treedoc surfaces (Doc, the op
// codec, snapshots, Engine, Session, an in-process Hub on loopback and
// durable WithLogDir engines), checks every output for correctness, and
// prints its metrics as one JSON line.
//
//	go -C perfbench build -o ../.bench_build/perfbench . &&
//	    .bench_build/perfbench --workload collab --seed 1 --seconds 10 --trace 0
//
// Workloads: replay (core only: edit, codec, apply, snapshot), collab
// (writes pushed through the hub) and catchup (late joiners pulling
// history from durable archivists). With --trace 0 the line carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics,
// measured by timing calls into each layer from the outside. README.md
// beside this file explains each choice.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/treedoc/treedoc/internal/transport"
)

// metricDef names one reported metric and its unit. The tables below must
// match BENCHMARK.json (perfbench_test.go checks it).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_s", "ops/s"},
	{"deliver_p50_ms", "ms"},
	{"wire_bytes_per_op", "B"},
	{"snapshot_bytes_per_atom", "B"},
	{"id_bits_per_atom", "bits"},
}

// replayInputLayer is the per-input row set of the replay workload; each
// name is reported as paper.<name> and bigdoc.<name>.
var replayInputLayer = []metricDef{
	{"replay_ops_s", "ops/s"},
	{"core.local_edit_ns_p50", "ns"},
	{"core.local_edit_ns_p99", "ns"},
	{"core.apply_ns_per_op", "ns"},
	{"core.live_atoms", "count"},
	{"core.nodes", "count"},
	{"core.tombstones", "count"},
	{"core.max_id_bits", "bits"},
	{"codec.encode_ns_per_op", "ns"},
	{"codec.decode_ns_per_op", "ns"},
	{"codec.bytes_per_op", "B"},
	{"storage.encode_ms", "ms"},
	{"storage.decode_ms", "ms"},
	{"storage.snapshot_bytes", "B"},
	{"heap_bytes_per_atom", "B"},
}

var perLayer = append([]metricDef{
	{"core.local_edit_ns_p50", "ns"},
	{"core.local_edit_ns_p99", "ns"},
	{"core.apply_ns_per_op", "ns"},
	{"core.apply_batch_ops", "ops"},
	{"core.live_atoms", "count"},
	{"core.nodes", "count"},
	{"core.tombstones", "count"},
	{"core.max_id_bits", "bits"},
	{"codec.encode_ns_per_op", "ns"},
	{"codec.decode_ns_per_op", "ns"},
	{"codec.bytes_per_op", "B"},
	{"storage.encode_ms", "ms"},
	{"storage.decode_ms", "ms"},
	{"storage.snapshot_bytes", "B"},
	{"engine.broadcast_ns_p50", "ns"},
	{"engine.send_wait_ms", "ms"},
	{"engine.recv_to_apply_ms", "ms"},
	{"engine.ops_per_frame", "ops"},
	{"engine.digests_sent", "count"},
	{"engine.digests_suppressed", "count"},
	{"engine.replay_ops", "count"},
	{"engine.replay_bytes", "B"},
	{"engine.snapshots_installed", "count"},
	{"engine.drops", "count"},
	{"link.send_ns_p50", "ns"},
	{"link.frames_sent", "count"},
	{"link.bytes_sent", "B"},
	{"link.frames_recv", "count"},
	{"link.bytes_recv", "B"},
	{"session.attach_ms_p50", "ms"},
	{"hub.transit_ms", "ms"},
	{"hub.relays", "count"},
	{"hub.drops", "count"},
	{"hub.replay_routes", "count"},
	{"hub.replay_fallbacks", "count"},
	{"hub.sync_batch_frames", "count"},
	{"hub.sync_batch_entries", "count"},
	{"oplog.open_ms_per_doc", "ms"},
	{"oplog.stop_ms", "ms"},
	{"oplog.disk_bytes_per_op", "B"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_pause_p99_ms", "ms"},
	{"runtime.heap_peak_mb", "MB"},
	{"bench.gen_lag_ms_p99", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.deliver_tail_ms", "ms"},
	{"bench.deliver_tail_pct", "pct"},
	{"bench.deliver_samples", "count"},
	{"bench.stage_sum_frac", "ratio"},
	{"bench.slow_joins", "count"},
	{"bench.ref_kernel_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"heap_bytes_per_atom", "B"},
	{"restart_s", "s"},
	{"catchup.replay_path_ms_p50", "ms"},
	{"catchup.snapshot_path_ms_p50", "ms"},
}, replayRows()...)

func replayRows() []metricDef {
	var out []metricDef
	for _, in := range []string{"paper", "bigdoc"} {
		for _, m := range replayInputLayer {
			out = append(out, metricDef{in + "." + m.name, m.unit})
		}
	}
	return out
}

const (
	// Each workload sets up at least minSetups times, then again until
	// setupBudget is spent (at most maxSetups times); setup_s is the
	// median. Cheap set-ups are repeated more, or their median would be
	// noise.
	minSetups   = 9
	maxSetups   = 50
	setupBudget = 2 * time.Second
	// restartRounds is how many times restart_s is measured at the end of
	// a run; it reports the median.
	restartRounds = 9
)

// moreSetups reports whether to set up again after done rounds that
// took spent in total.
func moreSetups(done int, spent float64) bool {
	return done < minSetups || (spent < setupBudget.Seconds() && done < maxSetups)
}

// run is one benchmark invocation's settings.
type run struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// tiny shrinks every input so the self-tests finish in seconds.
	tiny bool
	// dir is a private scratch directory (durable logs) inside the
	// checkout, removed when the run ends.
	dir string
	// wrap puts the benchmark's link wrapper around every session link.
	// Tests replace it to check that a wrapper hiding a link capability
	// is caught.
	wrap func(transport.Link, *linkStats, frameTap) transport.Link
	// out receives the human-readable report lines.
	out io.Writer
}

// outcome is what a workload measured and checked.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	problems  []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records a correctness violation covering n attempted operations.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*run) (*outcome, error){
	"replay":  runReplay,
	"collab":  runCollab,
	"catchup": runCatchup,
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report turns an outcome into the result line for the given mode: the
// end-to-end metrics untraced, the per-layer metrics traced. A per-layer
// metric of a layer the workload does not exercise reads 0.
func report(o *outcome, traced bool) (result, error) {
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	res.Correct = o.failed == 0 && len(o.problems) == 0 && o.attempted > 0
	defs, got := endToEnd, o.e2e
	if traced {
		defs, got = perLayer, o.layer
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		v, ok := got[d.name]
		if !ok && !traced {
			return res, fmt.Errorf("perfbench: workload did not measure %s", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var unknown []string
	for name := range got {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return res, fmt.Errorf("perfbench: undeclared metrics %v", unknown)
	}
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "replay, collab or catchup")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload replay|collab|catchup --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traced == 1,
		wrap:    wrapLink,
		out:     os.Stdout,
	}
	if err := execute(r, fn); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// execute runs one workload in a private scratch directory and prints the
// report, returning an error for a harness failure or a failed check.
func execute(r *run, fn func(*run) (*outcome, error)) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	defer os.RemoveAll(dir)
	if r.dir, err = filepath.Abs(dir); err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	o, err := fn(r)
	if err != nil {
		return err
	}
	for _, p := range o.problems {
		fmt.Fprintln(r.out, "CHECK FAILED:", p)
	}
	res, err := report(o, r.traced)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	fmt.Fprintln(r.out, string(line))
	if !res.Correct {
		return fmt.Errorf("perfbench: %d of %d operations failed their checks", res.Failed, res.Attempted)
	}
	return nil
}
