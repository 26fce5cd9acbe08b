// Command dspsim runs a single cluster simulation and prints its metrics.
//
// Usage:
//
//	dspsim [flags]
//
//	-platform real|ec2     testbed profile (default real: 50 nodes)
//	-scheduler NAME        DSP | Aalo | TetrisW/SimDep | TetrisW/oDep
//	-preemptor NAME        none | DSP | DSPW/oPP | Amoeba | Natjam | SRPT
//	-jobs N                number of jobs (default 150)
//	-scale F               workload task scale (default 0.03)
//	-seed N                workload seed (default 1)
//	-trace FILE            write Chrome trace-event JSON (Perfetto)
//	-audit FILE            write JSONL preemption-decision audit log
//	-series FILE           write per-epoch time-series CSV
//	-counters              print event counters after the run
//	-phases                print the scheduler-phase profile after the run
//	                       (exclusive time, count, p50/p95/p99/max per phase)
//	-pprof ADDR            serve /debug/pprof on ADDR (e.g. :6060)
//	-listen ADDR           serve live telemetry on ADDR (:0 for ephemeral):
//	                       Prometheus /metrics, /healthz, JSON /snapshot
//	                       (including the dsp_phase_seconds quantiles);
//	                       also prints a latency-attribution summary
//
// Durability flags (see DESIGN.md, "Durability"):
//
//	-checkpoint-dir DIR    persist crash-recovery state under DIR: a
//	                       checksummed engine snapshot every K periods
//	                       plus a write-ahead log of decisions in between
//	-checkpoint-every K    snapshot cadence in scheduling periods (default 5)
//	-resume                resume from the newest snapshot in -checkpoint-dir
//	                       instead of starting fresh (flags must match the
//	                       interrupted run; the world fingerprint is checked)
//
// A first SIGINT/SIGTERM stops the run at the next event boundary: the
// sink artifacts (audit, trace, series) are flushed, a final snapshot is
// written when -checkpoint-dir is set, and dspsim exits with status 130.
// A second signal aborts immediately.
//
// Resilience flags (see DESIGN.md, "Resilience subsystem"):
//
//	-faults F              fraction of flaky nodes (0 disables; stochastic
//	                       crash/straggler/task-fault plan via internal/chaos)
//	-fault-seed N          seed for the fault plan (default: workload seed)
//	-speculate             launch backup copies of stragglers on idle slots
//	-retry-budget N        attempts per task before terminal failure
//	                       (0 = default 10, negative = unlimited)
//	-retry-backoff SEC     base retry backoff in seconds (doubles per attempt)
//	-blacklist F           health-penalty threshold that blacklists a node
//	                       (0 disables; also makes the DSP scheduler risk-averse)
//
// Overload flags (see DESIGN.md, "Graceful degradation under overload"):
//
//	-solver-budget N       branch-and-bound node budget per exact ILP solve;
//	                       exhausted budgets fall down the degradation ladder
//	                       (anytime incumbent -> list -> FIFO) instead of
//	                       blocking (0 = default 20000)
//	-admission N           shed arriving jobs once the pending-task backlog
//	                       exceeds N, and shed deadline-infeasible jobs at
//	                       arrival (0 disables admission control)
//	-audit-invariants      re-check engine invariants at every scheduling
//	                       boundary, quarantining offending nodes/tasks
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"dsp/internal/attrib"
	"dsp/internal/chaos"
	"dsp/internal/cluster"
	"dsp/internal/experiments"
	"dsp/internal/obs"
	"dsp/internal/prof"
	"dsp/internal/recover"
	"dsp/internal/sched"
	"dsp/internal/sim"
	"dsp/internal/trace"
	"dsp/internal/units"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dspsim:", err)
		if errors.Is(err, sim.ErrInterrupted) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dspsim", flag.ContinueOnError)
	platform := fs.String("platform", "real", "testbed profile: real (50 nodes) or ec2 (30 instances)")
	scheduler := fs.String("scheduler", "DSP", "offline scheduling method")
	preemptor := fs.String("preemptor", "DSP", "online preemption method, or 'none'")
	jobs := fs.Int("jobs", 150, "number of jobs")
	scale := fs.Float64("scale", 0.03, "workload task scale (1.0 = paper-size jobs)")
	load := fs.Float64("load", 1, "mean-task-size multiplier (load factor; the experiment harness uses 1/scale)")
	seed := fs.Int64("seed", 1, "workload seed")
	tracePath := fs.String("trace", "", "write Chrome trace-event JSON to FILE (open in Perfetto)")
	auditPath := fs.String("audit", "", "write JSONL preemption-decision audit log to FILE")
	seriesPath := fs.String("series", "", "write per-epoch time-series CSV to FILE")
	counters := fs.Bool("counters", false, "print event counters after the run")
	phases := fs.Bool("phases", false, "print the scheduler-phase profile after the run")
	pprofAddr := fs.String("pprof", "", "serve /debug/pprof on ADDR (e.g. :6060)")
	listenAddr := fs.String("listen", "", "serve live telemetry (/metrics, /healthz, /snapshot) on ADDR")
	faults := fs.Float64("faults", 0, "fraction of flaky nodes (0 disables fault injection)")
	faultSeed := fs.Int64("fault-seed", 0, "fault-plan seed (0 = workload seed)")
	speculate := fs.Bool("speculate", false, "launch backup copies of straggling tasks on idle slots")
	retryBudget := fs.Int("retry-budget", 0, "execution attempts per task before terminal failure (0 = default, negative = unlimited)")
	retryBackoff := fs.Float64("retry-backoff", 0, "base retry backoff in seconds (doubles per attempt)")
	blacklist := fs.Float64("blacklist", 0, "health-penalty threshold that blacklists a node (0 disables)")
	solverBudget := fs.Int("solver-budget", 0, "branch-and-bound node budget per exact ILP solve (0 = default)")
	admission := fs.Int("admission", 0, "pending-task backlog bound for admission control (0 disables)")
	auditInv := fs.Bool("audit-invariants", false, "re-check engine invariants every scheduling boundary")
	checkpointDir := fs.String("checkpoint-dir", "", "persist crash-recovery snapshots and the decision WAL under DIR")
	checkpointEvery := fs.Int("checkpoint-every", 5, "snapshot cadence in scheduling periods")
	resume := fs.Bool("resume", false, "resume from the newest snapshot in -checkpoint-dir")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *checkpointDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}

	if addr, err := obs.StartPprof(*pprofAddr); err != nil {
		return err
	} else if addr != "" {
		fmt.Fprintf(os.Stderr, "pprof listening on %s\n", addr)
	}

	var plat experiments.Platform
	switch *platform {
	case "real":
		plat = experiments.Real
	case "ec2":
		plat = experiments.EC2
	default:
		return fmt.Errorf("unknown platform %q", *platform)
	}

	s, err := experiments.NewScheduler(*scheduler)
	if err != nil {
		return err
	}
	if d, ok := s.(*sched.DSP); ok {
		if *blacklist > 0 {
			// A blacklist only helps if the offline scheduler honours it.
			d.RiskAversion = 0.5
		}
		d.ILPNodeBudget = *solverBudget
	} else if *solverBudget > 0 {
		return fmt.Errorf("-solver-budget applies to the DSP scheduler, not %q", *scheduler)
	}
	var pre sim.Preemptor
	cp := cluster.DefaultCheckpoint()
	if *preemptor != "none" {
		pre, cp, err = experiments.NewPreemptor(*preemptor)
		if err != nil {
			return err
		}
	}

	spec := trace.DefaultSpec(*jobs, *seed)
	spec.TaskScale = *scale
	spec.MeanTaskSizeMI *= *load
	w, err := trace.Generate(spec)
	if err != nil {
		return err
	}

	// Resumed runs load the snapshot before the sink opens: the audit
	// file must be rewound to the byte offset the snapshot vouches for,
	// and the retained prefix rehydrates the attribution state below.
	var mgr *recover.Manager
	var st *sim.EngineState
	if *resume {
		mgr, st, err = recover.Resume(*checkpointDir, *checkpointEvery)
		if err != nil {
			return fmt.Errorf("resume from %s: %w", *checkpointDir, err)
		}
	} else if *checkpointDir != "" {
		mgr, err = recover.NewManager(*checkpointDir, *checkpointEvery)
		if err != nil {
			return err
		}
	}
	var auditResume int64
	var auditPrefix []byte
	if st != nil && *auditPath != "" && st.AuditOffset > 0 {
		auditResume = st.AuditOffset
		if auditPrefix, err = readPrefix(*auditPath, auditResume); err != nil {
			return fmt.Errorf("resume audit %s: %w", *auditPath, err)
		}
	}

	// The phase timer feeds the -phases table and, via the sink, the
	// telemetry server's dsp_phase_* metrics while the run is live.
	var tm *prof.Timer
	if *phases || *listenAddr != "" {
		tm = prof.New()
	}
	sink, err := obs.Open(obs.Options{
		TracePath:         *tracePath,
		AuditPath:         *auditPath,
		AuditResumeOffset: auditResume,
		SeriesPath:        *seriesPath,
		Counters:          *counters,
		ListenAddr:        *listenAddr,
		Prof:              tm,
	})
	if err != nil {
		return err
	}
	if sink.Telemetry != nil {
		fmt.Fprintf(os.Stderr, "telemetry listening on %s\n", sink.Telemetry.Addr())
	}
	cfg := sim.Config{
		Cluster:            plat.Cluster(),
		Scheduler:          s,
		Preemptor:          pre,
		Checkpoint:         cp,
		Period:             5 * units.Minute,
		Epoch:              10 * units.Second,
		RetryBudget:        *retryBudget,
		RetryBackoff:       units.FromSeconds(*retryBackoff),
		BlacklistThreshold: *blacklist,
		AuditInvariants:    *auditInv,
		Prof:               tm,
	}
	if *admission > 0 {
		cfg.Admission = &sim.Admission{
			MaxPendingTasks: *admission,
			ShedInfeasible:  true,
			Margin:          1.5,
		}
	}
	if *speculate {
		cfg.Speculation = &sim.Speculation{}
	}
	if *faults > 0 {
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed
		}
		cs := chaos.DefaultSpec(plat.Cluster().Len(), fseed)
		cs.FaultyFraction = *faults
		plan, err := cs.Plan()
		if err != nil {
			sink.Close()
			return err
		}
		cfg.Faults = plan
	}
	// Graceful shutdown: the first SIGINT/SIGTERM stops the event pump at
	// the next event boundary (the durability sink, when attached, writes
	// a final snapshot there); a second signal aborts immediately.
	var interrupt atomic.Bool
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		<-sigc
		interrupt.Store(true)
		fmt.Fprintln(os.Stderr, "dspsim: interrupt: stopping at the next event boundary (signal again to abort)")
		<-sigc
		fmt.Fprintln(os.Stderr, "dspsim: aborted")
		os.Exit(1)
	}()
	cfg.Interrupt = &interrupt

	switch {
	case mgr != nil && sink.Enabled():
		if sink.Audit != nil {
			mgr.AttachAudit(sink.Audit)
		}
		mgr.Peer = sink
		cfg.Observer = sim.Observers{sink, mgr}
	case mgr != nil:
		cfg.Observer = mgr
	case sink.Enabled():
		cfg.Observer = sink
	}
	if mgr != nil {
		cfg.Durability = mgr
	}

	var e *sim.Engine
	if st != nil {
		e, err = sim.PrepareResume(cfg, w, st)
	} else {
		e, err = sim.Prepare(cfg, w)
	}
	if err != nil {
		sink.Close()
		return err
	}
	if st != nil {
		if sink.Audit != nil && auditPrefix != nil {
			if err := sink.Audit.Rehydrate(bytes.NewReader(auditPrefix), e.FindTask); err != nil {
				sink.Close()
				return err
			}
		}
		if cfg.Observer != nil {
			cfg.Observer.Observe(sim.Event{Kind: sim.RecoveryStarted, At: st.Now, N: st.PeriodIndex})
		}
		fmt.Fprintf(os.Stderr, "resuming from snapshot at t=%v (period %d), verifying %d logged decisions\n",
			st.Now, st.PeriodIndex, mgr.ReplayTarget())
	}
	res, err := e.Execute()
	if err != nil {
		if mgr != nil {
			if cerr := mgr.Close(); cerr != nil && errors.Is(err, sim.ErrInterrupted) {
				err = fmt.Errorf("%w (and closing the checkpoint failed: %v)", err, cerr)
			}
		}
		sink.Close()
		if errors.Is(err, sim.ErrInterrupted) && *checkpointDir != "" {
			fmt.Fprintf(os.Stderr, "final snapshot written; rerun with -resume -checkpoint-dir %s to continue\n", *checkpointDir)
		}
		return err
	}
	if mgr != nil {
		if err := mgr.Close(); err != nil {
			sink.Close()
			return err
		}
	}
	if err := sink.Close(); err != nil {
		return err
	}

	fmt.Printf("platform:            %s (%d nodes)\n", plat, plat.Cluster().Len())
	fmt.Printf("scheduler:           %s\n", s.Name())
	if pre != nil {
		fmt.Printf("preemptor:           %s (checkpoint=%v)\n", pre.Name(), cp.Enabled)
	} else {
		fmt.Printf("preemptor:           none\n")
	}
	fmt.Printf("jobs:                %d (scale %.3f, arrival %.2f jobs/min)\n", *jobs, *scale, w.ArrivalRate)
	fmt.Println()
	fmt.Printf("makespan:            %v\n", res.Makespan)
	fmt.Printf("tasks completed:     %d\n", res.TasksCompleted)
	fmt.Printf("throughput:          %.4f tasks/ms\n", res.TaskThroughputPerMs)
	fmt.Printf("jobs meeting ddl:    %d / %d\n", res.JobsMetDeadline, res.JobsCompleted)
	fmt.Printf("job throughput:      %.3f deadline-met jobs/min\n", res.JobThroughputPerMin)
	fmt.Printf("avg job waiting:     %v\n", res.AvgJobWait)
	fmt.Printf("avg task waiting:    %v\n", res.AvgTaskWait)
	fmt.Printf("preemptions:         %d\n", res.Preemptions)
	fmt.Printf("disorders:           %d\n", res.Disorders)
	if *faults > 0 || res.Failures > 0 || res.TaskFaults > 0 {
		fmt.Println()
		fmt.Printf("node failures:       %d (blacklistings %d)\n",
			res.Failures, res.Blacklistings)
		fmt.Printf("task faults:         %d (crash evictions %d)\n", res.TaskFaults, res.FailureEvictions)
		fmt.Printf("retries:             %d (terminal failures %d, jobs failed %d)\n",
			res.Retries, res.TerminalFailures, res.JobsFailed)
		fmt.Printf("speculations:        %d (won %d, cancelled %d)\n",
			res.Speculations, res.SpeculationWins, res.SpeculationCancels)
		fmt.Printf("goodput:             %.4f tasks/ms\n", res.GoodputPerMs)
		fmt.Printf("lost work:           %v (speculative waste %v)\n", res.LostWork, res.SpeculativeWaste)
	}
	if *admission > 0 || *auditInv || res.SolverDegradations > 0 || res.JobsShed > 0 {
		fmt.Println()
		fmt.Printf("jobs shed:           %d (peak pending tasks %d)\n", res.JobsShed, res.PeakPendingTasks)
		fmt.Printf("solver degradations: %d\n", res.SolverDegradations)
		fmt.Printf("invariant checks:    %d violations, %d quarantines\n",
			res.InvariantViolations, res.Quarantines)
	}
	if sink.Counters != nil {
		fmt.Printf("\nevent counters:\n%s", sink.Counters)
	}
	if *phases && tm != nil {
		snap := tm.Snapshot()
		fmt.Printf("\nscheduler phases (exclusive time):\n%s", prof.Table(snap.Breakdown()))
	}
	if sink.Attrib != nil {
		if blame, n := sink.Attrib.Aggregate(); n > 0 {
			fmt.Printf("\nlatency attribution (%d jobs, mean s/job):\n", n)
			for _, c := range attrib.Causes() {
				if blame[c] == 0 {
					continue
				}
				fmt.Printf("  %-16s %10.3f\n", c.String(), blame[c].Seconds()/float64(n))
			}
		}
	}
	for _, a := range []struct{ what, path string }{
		{"trace", *tracePath},
		{"audit", *auditPath},
		{"series", *seriesPath},
	} {
		if a.path != "" {
			fmt.Fprintf(os.Stderr, "%s written to %s\n", a.what, a.path)
		}
	}
	return nil
}

// readPrefix returns the first n bytes of the file — the audit prefix
// the resumed run's snapshot vouches for, used to rehydrate the
// attribution state before the roll-forward appends to it.
func readPrefix(path string, n int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := make([]byte, n)
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, fmt.Errorf("file shorter than checkpoint offset %d: %w", n, err)
	}
	return b, nil
}
