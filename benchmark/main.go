// Command benchmark is the repository's end-to-end benchmark. It runs one
// of four workloads — two figure sweeps and two serving-daemon loads —
// checks the outputs, and prints every metric by name and unit, ending
// with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root with benchmark/run.sh, which builds it
// and dspserve from the checkout first:
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced
// run (--trace 1) prints the per-layer metrics and writes one span per
// sweep cell or request to a JSONL file. The exit status is 0 only when
// every output check passed; a run whose load generator or daemon
// misbehaved prints no metrics at all. README.md defines the workloads
// and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// outcome is one workload run's result before printing.
type outcome struct {
	m         metricMap
	attempted int
	failed    int
	spans     []any // traced runs only
}

// result is the JSON line the run ends with.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricMap `json:"metrics"`
}

// workloads lists the benchmark's workloads in BENCHMARK.json's order.
var workloads = []string{"sweep-preempt", "sweep-sched", "serve-durable", "serve-volatile"}

// serveWorkloads maps each serving workload to whether the daemon runs
// with a checkpoint directory (journal, snapshots and WAL).
var serveWorkloads = map[string]bool{"serve-durable": true, "serve-volatile": false}

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// childMain is a sweep pass child's entry point.
func childMain(args []string) int {
	fs := flag.NewFlagSet("benchmark-pass", flag.ContinueOnError)
	name := fs.String("sweep-pass", "", "sweep workload whose pass to run")
	seed := fs.Int64("pass-seed", poolBase, "sweep seed of the pass")
	probe := fs.Bool("probe", false, "stop once set-up is done")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Unbuffered: the parent times set-up by when "ready" arrives.
	if err := runPass(*name, *seed, *probe, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark pass:", err)
		return 1
	}
	return 0
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: sweep-preempt, sweep-sched, serve-durable or serve-volatile")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	traceFlag := fs.Int("trace", 0, "1 for the traced run (per-layer metrics and spans), 0 for end-to-end metrics")
	outDir := fs.String("out", ".bench_build", "directory holding dspserve, scratch files and span files")
	spansPath := fs.String("spans", "", "traced run: span file (default OUT/spans-WORKLOAD-SEED.jsonl)")
	pin := fs.Bool("pin", false, "print digests.json for the current sweep output instead of running a workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pin {
		if err := pinDigests(stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "benchmark: --trace must be 0 or 1")
		return 2
	}
	traced := *traceFlag == 1
	out, err := runWorkload(*workload, *seed, *seconds, *outDir, traced, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if traced {
		if *spansPath == "" {
			*spansPath = filepath.Join(*outDir, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
		}
		if err := writeSpans(*spansPath, out.spans); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans: %d written to %s\n", len(out.spans), *spansPath)
	}
	defs := endToEnd
	if traced {
		defs = perLayer()
		// The end-to-end numbers under tracing, for the tracing overhead.
		for _, d := range endToEnd {
			fmt.Fprintf(stderr, "traced %s %.6g %s\n", d.name, out.m[d.name].Value, d.unit)
		}
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.m.only(defs),
	}
	printTable(stdout, res)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

func runWorkload(name string, seed int64, seconds float64, outDir string, traced bool, log io.Writer) (*outcome, error) {
	tmp := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	if _, ok := sweeps[name]; ok {
		pinned, err := loadDigests()
		if err != nil {
			return nil, err
		}
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		out, err := sweepRun{name: name, seed: seed, seconds: seconds, exe: exe, pinned: pinned, log: log}.run(traced)
		if err != nil || !traced {
			return out, err
		}
		// The machine calibrations every traced run reports.
		jobs, err := genJobs(500, seed)
		if err != nil {
			return nil, err
		}
		bodies, enc, err := encodeJobs(jobs)
		if err != nil {
			return nil, err
		}
		return out, calibrate(out.m, tmp, bodies, enc)
	}
	if durable, ok := serveWorkloads[name]; ok {
		bin, err := filepath.Abs(filepath.Join(outDir, "dspserve"))
		if err != nil {
			return nil, err
		}
		return serveRun{
			durable: durable, seed: seed, p: serveDefaults(seconds),
			bin: bin, tmp: tmp, log: log,
		}.run(traced)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

// printTable prints the metrics one per line, by name, value and unit.
func printTable(w io.Writer, r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

func writeSpans(path string, spans []any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
