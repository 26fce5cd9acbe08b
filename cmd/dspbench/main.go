// Command dspbench regenerates the paper's evaluation figures as
// plain-text tables (the series behind Figures 5–8 and the Table II
// parameter listing), and doubles as the perf-regression harness over
// the machine-readable reports it writes.
//
// Usage:
//
//	dspbench [flags]
//	dspbench -compare [compare flags] OLD.json NEW.json
//
//	-fig LIST    comma-separated figures to run: 5a,5b,6,7,8, table2 or "all";
//	             "resilience" runs the degradation-under-faults sweep,
//	             "overload" the graceful-degradation-under-overload sweep,
//	             and "attrib" the completion-time blame decomposition
//	             (none is part of "all" — they are this reproduction's
//	             extensions, not paper figures)
//	-scale F     workload task scale (default 0.03; 1.0 = paper size)
//	-seed N      sweep seed
//	-csv         emit CSV instead of aligned text
//	-trace FILE  write Chrome trace-event JSON for every sweep cell
//	             (includes a per-cell scheduler-phase summary row)
//	-audit FILE  write JSONL decision audit (run markers separate cells)
//	-series FILE write per-epoch time-series CSV (one section per cell)
//	-pprof ADDR  serve /debug/pprof on ADDR (e.g. :6060)
//	-listen ADDR serve live telemetry (/metrics, /healthz, /snapshot)
//	             while the sweep runs, including the aggregate
//	             dsp_phase_seconds quantiles
//	-workers N   concurrent sweep cells (default GOMAXPROCS; output is
//	             byte-identical for every N; -audit/-trace/-series force 1)
//	-phases      print the aggregate scheduler-phase table after the sweeps
//	-bench-json FILE
//	             write a machine-readable sweep benchmark report
//	             (schema dsp-bench-sweep/v2: wall time, cells/sec,
//	             per-cell µs and per-cell phase breakdowns; the report
//	             is round-trip validated before it is written)
//
// Compare mode diffs two -bench-json reports and exits non-zero when the
// new one regressed — per-phase aggregate totals beyond -compare-phase-tol
// (default ±20%), or total wall time beyond -compare-total-tol (default
// ±10%), ignoring phases under -compare-min-us (default 1000µs) in both
// reports. The table is blame-ordered: the first row is where the
// regression's time actually went. Tolerance flags must precede the two
// report paths (flag parsing stops at the first positional argument).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"

	"dsp/internal/experiments"
	"dsp/internal/metrics"
	"dsp/internal/obs"
	"dsp/internal/prof"
	"dsp/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dspbench:", err)
		if errors.Is(err, sim.ErrInterrupted) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("dspbench", flag.ContinueOnError)
	figs := fs.String("fig", "all", "figures to run: 5a,5b,6,7,8,table2,resilience,overload,attrib, all, or none")
	scale := fs.Float64("scale", 0.03, "workload task scale (1.0 = paper-size jobs)")
	seed := fs.Int64("seed", 0, "sweep seed (0 = default)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	sens := fs.String("sensitivity", "", "comma-separated DSP parameters to sweep: gamma,delta,rho,omega1,epoch")
	sensJobs := fs.Int("sensitivity-jobs", 150, "job count for sensitivity sweeps")
	fairness := fs.Bool("fairness", false, "also report per-method slowdown fairness (Jain index)")
	faultPcts := fs.String("faults", "0,5,10,20,30", "fault levels (%% flaky nodes) for -fig resilience, comma-separated")
	resJobs := fs.Int("resilience-jobs", 150, "job count for the resilience sweep")
	faultSeed := fs.Int64("fault-seed", 0, "fault-plan seed for the resilience sweep (0 = default)")
	overMults := fs.String("overload-mults", "1,2,4,8", "arrival multipliers for -fig overload, comma-separated")
	overJobs := fs.Int("overload-jobs", 150, "job count for the overload sweep")
	overBase := fs.Float64("overload-base", 0, "base arrival rate in jobs/min for -fig overload (0 = default)")
	overPending := fs.Int("overload-pending", 0, "ladder arm's admission bound on pending tasks (0 = default)")
	tracePath := fs.String("trace", "", "write Chrome trace-event JSON to FILE (runs laid out back-to-back)")
	auditPath := fs.String("audit", "", "write JSONL decision audit to FILE (run markers separate cells)")
	seriesPath := fs.String("series", "", "write per-epoch time-series CSV to FILE (one section per cell)")
	pprofAddr := fs.String("pprof", "", "serve /debug/pprof on ADDR (e.g. :6060)")
	listenAddr := fs.String("listen", "", "serve live telemetry (/metrics, /healthz, /snapshot) on ADDR")
	attribJobs := fs.String("attrib-jobs", "", "job counts for -fig attrib, comma-separated (default: the Figure 6 x-axis)")
	workers := fs.Int("workers", 0, "concurrent sweep cells (0 = GOMAXPROCS; output is byte-identical for every value)")
	phases := fs.Bool("phases", false, "print the aggregate scheduler-phase table after the sweeps")
	recoverySmoke := fs.Int("recovery-smoke", 0, "kill/recover the crash-recovery stress cell at N seeded points and verify byte-identical artifacts (0 disables)")
	benchJSON := fs.String("bench-json", "", "write a dsp-bench-sweep JSON benchmark report to FILE")
	compare := fs.Bool("compare", false, "compare mode: diff two -bench-json reports (OLD.json NEW.json) and exit non-zero on regression")
	phaseTol := fs.Float64("compare-phase-tol", 0, "allowed per-phase total growth fraction (0 = default 0.20)")
	totalTol := fs.Float64("compare-total-tol", 0, "allowed total wall-time growth fraction (0 = default 0.10)")
	minPhaseUS := fs.Float64("compare-min-us", 0, "phase noise floor in µs: phases under this in both reports are never flagged (0 = default 1000)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *compare {
		rest := fs.Args()
		if len(rest) != 2 {
			return fmt.Errorf("-compare needs exactly two report paths: OLD.json NEW.json (got %d args)", len(rest))
		}
		return runCompare(rest[0], rest[1], experiments.CompareThresholds{
			PhaseFrac: *phaseTol, TotalFrac: *totalTol, MinPhaseUS: *minPhaseUS,
		}, out)
	}

	if addr, err := obs.StartPprof(*pprofAddr); err != nil {
		return err
	} else if addr != "" {
		fmt.Fprintln(os.Stderr, "pprof listening on "+addr)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM finishes the sweep in
	// flight, then skips the rest — the artifacts and the bench report
	// cover what completed, and dspbench exits 130. A second signal
	// aborts immediately.
	var interrupted atomic.Bool
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		<-sigc
		interrupted.Store(true)
		fmt.Fprintln(os.Stderr, "dspbench: interrupt: finishing the sweep in flight, skipping the rest (signal again to abort)")
		<-sigc
		fmt.Fprintln(os.Stderr, "dspbench: aborted")
		os.Exit(1)
	}()
	ok := func() bool { return !interrupted.Load() }

	o := experiments.DefaultOptions()
	o.Scale = *scale
	if *seed != 0 {
		o.Seed = *seed
	}
	// The aggregate phase timer feeds the -phases table and the telemetry
	// server's dsp_phase_* metrics; per-cell snapshots merge into it as
	// the sweeps progress.
	var agg *prof.Timer
	if *phases || *listenAddr != "" {
		agg = prof.New()
		o.Prof = agg
	}
	sink, err := obs.Open(obs.Options{
		TracePath:  *tracePath,
		AuditPath:  *auditPath,
		SeriesPath: *seriesPath,
		ListenAddr: *listenAddr,
		Prof:       agg,
	})
	if err != nil {
		return err
	}
	defer sink.Close()
	if sink.Telemetry != nil {
		fmt.Fprintf(os.Stderr, "telemetry listening on %s\n", sink.Telemetry.Addr())
	}
	if sink.Enabled() {
		o.Observer = sink
	}
	o.Workers = *workers
	var stats *experiments.SweepStats
	if *benchJSON != "" {
		stats = &experiments.SweepStats{}
		o.Stats = stats
	}

	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		want[strings.TrimSpace(strings.ToLower(f))] = true
	}
	all := want["all"]

	emit := func(t *metrics.Table) {
		if *csv {
			fmt.Fprintf(out, "# %s\n%s\n", t.Title, t.CSV())
		} else {
			fmt.Fprintf(out, "%s\n", t.Render())
		}
	}

	if (all || want["table2"]) && ok() {
		fmt.Fprintln(out, tableII())
	}
	if (all || want["5a"]) && ok() {
		t, err := experiments.Fig5(experiments.Real, o)
		if err != nil {
			return err
		}
		emit(t)
	}
	if (all || want["5b"]) && ok() {
		t, err := experiments.Fig5(experiments.EC2, o)
		if err != nil {
			return err
		}
		emit(t)
	}
	if (all || want["6"]) && ok() {
		f, err := experiments.Fig6(experiments.Real, o)
		if err != nil {
			return err
		}
		for _, t := range f.All() {
			emit(t)
		}
	}
	if (all || want["7"]) && ok() {
		f, err := experiments.Fig6(experiments.EC2, o)
		if err != nil {
			return err
		}
		for _, t := range f.All() {
			emit(t)
		}
	}
	if (all || want["8"]) && ok() {
		f, err := experiments.Fig8(o)
		if err != nil {
			return err
		}
		emit(f.Makespan)
		emit(f.Throughput)
	}
	if want["resilience"] && ok() {
		ro := experiments.DefaultResilienceOptions()
		ro.Options = o
		ro.Jobs = *resJobs
		if *faultSeed != 0 {
			ro.FaultSeed = *faultSeed
		}
		ro.FaultPercents = ro.FaultPercents[:0]
		for _, p := range strings.Split(*faultPcts, ",") {
			var pct int
			if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &pct); err != nil {
				return fmt.Errorf("bad -faults entry %q: %w", p, err)
			}
			ro.FaultPercents = append(ro.FaultPercents, pct)
		}
		f, err := experiments.Resilience(experiments.Real, ro)
		if err != nil {
			return err
		}
		for _, t := range f.All() {
			emit(t)
		}
	}
	if want["overload"] && ok() {
		oo := experiments.DefaultOverloadOptions()
		oo.Options = o
		oo.Jobs = *overJobs
		if *overBase > 0 {
			oo.BaseArrivalPerMin = *overBase
		}
		if *overPending > 0 {
			oo.MaxPendingTasks = *overPending
		}
		oo.Multipliers = oo.Multipliers[:0]
		for _, m := range strings.Split(*overMults, ",") {
			var mult float64
			if _, err := fmt.Sscanf(strings.TrimSpace(m), "%g", &mult); err != nil {
				return fmt.Errorf("bad -overload-mults entry %q: %w", m, err)
			}
			oo.Multipliers = append(oo.Multipliers, mult)
		}
		f, err := experiments.Overload(experiments.Real, oo)
		if err != nil {
			return err
		}
		for _, t := range f.All() {
			emit(t)
		}
	}
	if want["attrib"] && ok() {
		ao := experiments.DefaultAttributionOptions()
		ao.Options = o
		if *attribJobs != "" {
			ao.JobCounts = ao.JobCounts[:0]
			for _, j := range strings.Split(*attribJobs, ",") {
				var n int
				if _, err := fmt.Sscanf(strings.TrimSpace(j), "%d", &n); err != nil {
					return fmt.Errorf("bad -attrib-jobs entry %q: %w", j, err)
				}
				ao.JobCounts = append(ao.JobCounts, n)
			}
		}
		f, err := experiments.Attribution(experiments.Real, ao)
		if err != nil {
			return err
		}
		for _, t := range f.All() {
			emit(t)
		}
	}
	if *sens != "" && ok() {
		for _, p := range strings.Split(*sens, ",") {
			param := experiments.SensitivityParam(strings.TrimSpace(strings.ToLower(p)))
			t, err := experiments.Sensitivity(param, nil, experiments.Real, *sensJobs, o)
			if err != nil {
				return err
			}
			emit(t)
		}
	}
	if *fairness && ok() {
		t, err := experiments.Fairness(experiments.Real, *sensJobs, o)
		if err != nil {
			return err
		}
		emit(t)
	}
	if *recoverySmoke > 0 && ok() {
		if err := runRecoverySmoke(out, o.Seed, *recoverySmoke, &interrupted); err != nil {
			return err
		}
	}
	if agg != nil {
		snap := agg.Snapshot()
		fmt.Fprintf(out, "# Aggregate scheduler phases (all cells)\n%s\n", prof.Table(snap.Breakdown()))
	}
	if stats != nil {
		report := &experiments.BenchReport{
			Schema:      experiments.BenchSchemaV2,
			Workers:     *workers,
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			NumCPU:      runtime.NumCPU(),
			Scale:       o.Scale,
			Seed:        o.Seed,
			Sweeps:      stats.Sweeps,
			TotalWallMS: stats.TotalWallMS(),
		}
		data, err := report.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*benchJSON, data, 0o644); err != nil {
			return fmt.Errorf("write -bench-json: %w", err)
		}
		fmt.Fprintf(os.Stderr, "bench report written to %s (schema %s, %d sweeps, %.0f ms total)\n",
			*benchJSON, report.Schema, len(stats.Sweeps), stats.TotalWallMS())
	}
	if interrupted.Load() {
		// The artifacts above cover only the sweeps that completed; the
		// distinct exit status tells wrappers the report is partial.
		return fmt.Errorf("sweeps skipped after signal: %w", sim.ErrInterrupted)
	}
	return nil
}

// runCompare loads two bench reports, renders the blame-ordered delta
// table and returns an error (→ non-zero exit) when the new report
// regressed past the thresholds.
func runCompare(oldPath, newPath string, th experiments.CompareThresholds, out *os.File) error {
	load := func(path string) (*experiments.BenchReport, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		r, err := experiments.ReadBenchReport(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return r, nil
	}
	oldRep, err := load(oldPath)
	if err != nil {
		return err
	}
	newRep, err := load(newPath)
	if err != nil {
		return err
	}
	res, err := experiments.CompareBench(oldRep, newRep, th)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# dspbench compare: %s -> %s\n%s", oldPath, newPath, res.Render())
	if res.Regressed() {
		return fmt.Errorf("performance regression detected (see table above)")
	}
	fmt.Fprintln(out, "no regression: all deltas within thresholds")
	return nil
}

// tableII renders the paper's Table II parameter settings.
func tableII() string {
	rows := [][3]string{
		{"n", "# of servers", "30-50"},
		{"h", "# of jobs", "150-2500"},
		{"m", "# of tasks of a job", "100-2000"},
		{"delta", "minimum required ratio", "0.35"},
		{"tau", "waiting-time threshold (starvation)", "see preempt.Params.Tau"},
		{"theta1", "weight for CPU size", "0.5"},
		{"theta2", "weight for Mem size", "0.5"},
		{"alpha", "weight for waiting time (SRPT)", "0.5"},
		{"beta", "weight for remaining time (SRPT)", "1"},
		{"gamma", "level coefficient in (0,1)", "0.5"},
		{"omega1", "weight for task's remaining time", "0.5"},
		{"omega2", "weight for task's waiting time", "0.3"},
		{"omega3", "weight for task's allowable waiting time", "0.2"},
	}
	var b strings.Builder
	b.WriteString("# Table II — parameter settings\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-45s %s\n", r[0], r[1], r[2])
	}
	return b.String()
}
