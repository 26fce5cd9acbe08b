package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dsp/internal/experiments"
	"dsp/internal/metrics"
)

// A sweep workload regenerates a fixed set of figure cells, one pass at
// a time, each pass in a fresh child process. Each pass draws its sweep
// seed from a pool whose rendered tables are pinned in digests.json, so
// every pass of every run is checked against known-good output.
//
// The pool starts at the repository's default sweep seed, so pool seed 0
// is what dspbench runs.
const (
	poolBase = 20180901
	poolSize = 12
	// setupProbes is how many extra child starts each run times, so the
	// set-up median rests on more than the two or three passes a run fits.
	setupProbes = 5
)

//go:embed digests.json
var digestsJSON []byte

// sweepWorkload is one pass's figures.
type sweepWorkload struct {
	jobCounts      []int // Options.JobCounts (Figures 5-7)
	scaleJobCounts []int // Options.ScaleJobCounts (Figure 8)
	cells          int   // cells per pass
	render         func(o experiments.Options, out *bytes.Buffer) error
}

var sweeps = map[string]sweepWorkload{
	// Figures 6 and 7 at 300 jobs: all five preemptors on the DSP initial
	// schedule, on both testbeds. About three quarters of the time is the
	// baseline preemptors' epoch-policy (SRPT/Amoeba queue re-sorting).
	"sweep-preempt": {
		jobCounts: []int{300},
		cells:     10,
		render: func(o experiments.Options, out *bytes.Buffer) error {
			for _, p := range []experiments.Platform{experiments.Real, experiments.EC2} {
				f, err := experiments.Fig6(p, o)
				if err != nil {
					return err
				}
				for _, t := range f.All() {
					emit(out, t)
				}
			}
			return nil
		},
	},
	// Figures 5a/5b at 450 jobs and Figure 8 at 1500: no baseline
	// preemptor runs, so the time is Tetris/Aalo packing, the DSP list
	// heuristic and the DSP priority memo.
	"sweep-sched": {
		jobCounts:      []int{450},
		scaleJobCounts: []int{1500},
		cells:          10,
		render: func(o experiments.Options, out *bytes.Buffer) error {
			for _, p := range []experiments.Platform{experiments.Real, experiments.EC2} {
				t, err := experiments.Fig5(p, o)
				if err != nil {
					return err
				}
				emit(out, t)
			}
			f, err := experiments.Fig8(o)
			if err != nil {
				return err
			}
			emit(out, f.Makespan)
			emit(out, f.Throughput)
			return nil
		},
	},
}

// emit renders a table exactly as dspbench prints it.
func emit(out *bytes.Buffer, t *metrics.Table) { fmt.Fprintf(out, "%s\n", t.Render()) }

// poolOrder is the order in which a run draws pool seeds: a permutation
// fixed by the run's seed.
func poolOrder(seed int64) []int64 {
	perm := rand.New(rand.NewSource(seed)).Perm(poolSize)
	out := make([]int64, poolSize)
	for i, k := range perm {
		out[i] = poolBase + int64(k)
	}
	return out
}

// passReport is what a pass child prints as its last stdout line.
type passReport struct {
	Digest string                 `json:"digest"`
	WallUS float64                `json:"wall_us"`
	Cells  []experiments.CellTime `json:"cells"`
}

// runPass is the child side: it regenerates one pass's figures for
// sweep seed seed. It prints "ready" just before the first figure call —
// the end of set-up — then the passReport. With probe set it stops after
// "ready".
func runPass(name string, seed int64, probe bool, stdout io.Writer) error {
	w, ok := sweeps[name]
	if !ok {
		return fmt.Errorf("unknown sweep workload %q", name)
	}
	o := experiments.DefaultOptions()
	o.Seed = seed
	o.Workers = 1
	o.JobCounts = w.jobCounts
	o.ScaleJobCounts = w.scaleJobCounts
	stats := &experiments.SweepStats{}
	o.Stats = stats
	fmt.Fprintln(stdout, "ready")
	if probe {
		return nil
	}
	var out bytes.Buffer
	t0 := time.Now()
	if err := w.render(o, &out); err != nil {
		return err
	}
	rep := passReport{WallUS: float64(time.Since(t0).Nanoseconds()) / 1e3, Digest: digest(out.Bytes())}
	for _, s := range stats.Sweeps {
		rep.Cells = append(rep.Cells, s.CellTimes...)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// childEnv marks a process started as a pass child, so a test binary
// standing in for the benchmark binary knows to act as one.
const childEnv = "DSP_BENCHMARK_CHILD"

// passRun is one child pass as the parent saw it.
type passRun struct {
	seed   int64
	setup  time.Duration // exec → "ready"
	rep    passReport
	cpu    time.Duration // child user+sys
	rssMiB float64       // child max RSS
}

// spawnPass runs one child and waits for it.
func spawnPass(exe, name string, seed int64, probe bool) (passRun, error) {
	args := []string{"-sweep-pass", name, "-pass-seed", strconv.FormatInt(seed, 10)}
	if probe {
		args = append(args, "-probe")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return passRun{}, err
	}
	r := passRun{seed: seed}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return r, fmt.Errorf("start pass: %w", err)
	}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 16<<20)
	var lines []string
	for sc.Scan() {
		if len(lines) == 0 {
			r.setup = time.Since(t0)
		}
		lines = append(lines, sc.Text())
	}
	werr := cmd.Wait()
	if werr != nil {
		return r, fmt.Errorf("pass %s seed %d: %w", name, seed, werr)
	}
	if len(lines) == 0 || lines[0] != "ready" {
		return r, fmt.Errorf("pass %s seed %d: no ready line", name, seed)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.rssMiB = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	if probe {
		return r, nil
	}
	if len(lines) != 2 {
		return r, fmt.Errorf("pass %s seed %d: want a report line after ready, got %d lines", name, seed, len(lines))
	}
	if err := json.Unmarshal([]byte(lines[1]), &r.rep); err != nil {
		return r, fmt.Errorf("pass %s seed %d: report: %w", name, seed, err)
	}
	return r, nil
}

// cellJobs is the job count a cell label ends in ("fig6-SRPT-h300").
func cellJobs(label string) (int, error) {
	i := strings.LastIndex(label, "-h")
	if i < 0 {
		return 0, fmt.Errorf("cell label %q has no -h<jobs> suffix", label)
	}
	return strconv.Atoi(label[i+2:])
}

// sweepRun is the parent side of a sweep workload.
type sweepRun struct {
	name    string
	seed    int64
	seconds float64
	exe     string                       // binary to start as the pass child
	pinned  map[string]map[string]string // workload → pool seed → digest
	log     io.Writer
}

func (s sweepRun) run(traced bool) (*outcome, error) {
	w, ok := sweeps[s.name]
	if !ok {
		return nil, fmt.Errorf("unknown sweep workload %q", s.name)
	}
	out := &outcome{m: metricMap{}}
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		p, err := spawnPass(s.exe, s.name, poolBase, true)
		if err != nil {
			return nil, err
		}
		setups = append(setups, p.setup.Seconds())
	}

	order := poolOrder(s.seed)
	var (
		wallUS, jobs float64
		cpu          time.Duration
		rss          []float64
		cellMS       dist
		phases       = phaseTotals{}
		cellUS       float64
		cellMax      float64
		spans        []any
	)
	start := time.Now()
	for k := 0; ; k++ {
		if k > 0 {
			// Start another pass only if one more of average length
			// still ends inside the run.
			avg := time.Since(start) / time.Duration(k)
			if time.Since(start)+avg > time.Duration(s.seconds*float64(time.Second)) {
				break
			}
		}
		seed := order[k%len(order)]
		p, err := spawnPass(s.exe, s.name, seed, false)
		out.attempted += w.cells
		if err != nil {
			fmt.Fprintf(s.log, "pass %d: %v\n", k, err)
			out.failed += w.cells
			continue
		}
		if want := s.pinned[s.name][strconv.FormatInt(seed, 10)]; p.rep.Digest != want {
			fmt.Fprintf(s.log, "pass %d (seed %d): table digest %s, pinned %q\n", k, seed, p.rep.Digest, want)
			out.failed += w.cells
			continue
		}
		if len(p.rep.Cells) != w.cells {
			fmt.Fprintf(s.log, "pass %d (seed %d): %d cells, want %d\n", k, seed, len(p.rep.Cells), w.cells)
			out.failed += w.cells
			continue
		}
		for _, c := range p.rep.Cells {
			h, err := cellJobs(c.Label)
			if err != nil {
				return nil, err
			}
			jobs += float64(h)
			cellMS.add(c.US / 1e3)
			cellUS += c.US
			cellMax = max(cellMax, c.US/1e6)
			for _, ph := range c.Phases {
				phases.add(ph.Phase, ph.TotalUS, float64(ph.Count))
			}
			if traced {
				spans = append(spans, map[string]any{"kind": "cell", "pass": k, "seed": seed, "label": c.Label, "us": c.US, "phases": c.Phases})
			}
		}
		setups = append(setups, p.setup.Seconds())
		wallUS += p.rep.WallUS
		cpu += p.cpu
		rss = append(rss, p.rssMiB)
		fmt.Fprintf(s.log, "pass %d: seed %d, %.2f s wall, %.2f s cpu, %.1f MiB, setup %.1f ms\n",
			k, seed, p.rep.WallUS/1e6, p.cpu.Seconds(), p.rssMiB, p.setup.Seconds()*1e3)
	}
	if len(rss) == 0 {
		return out, nil // every pass failed
	}

	p50, p90 := cellMS.quantile(0.5), cellMS.quantile(0.9)
	fmt.Fprintf(s.log, "cells: %s, %s\n", p50, p90)
	out.m.set("setup_s", median(setups), "s")
	out.m.set("jobs_per_s", jobs/(wallUS/1e6), "1/s")
	out.m.set("cpu_ms_per_job", cpu.Seconds()*1e3/jobs, "ms")
	out.m.set("latency_p50_ms", p50.value, "ms")
	out.m.set("latency_p90_ms", p90.value, "ms")
	out.m.set("peak_rss_mib", median(rss), "MiB")
	if traced {
		phaseMetrics(phases, jobs, out.m)
		out.m.set("experiments.cell_max_s", cellMax, "s")
		out.m.set("experiments.phase_cover", phases.engineUS()/cellUS, "ratio")
		out.spans = spans
	}
	return out, nil
}

// pinDigests regenerates digests.json: the rendered-table digest of
// every sweep workload at every pool seed. Run it only when a change is
// meant to alter the figures' output.
func pinDigests(stdout io.Writer) error {
	pinned := map[string]map[string]string{}
	for name := range sweeps {
		pinned[name] = map[string]string{}
		for k := int64(0); k < poolSize; k++ {
			var buf bytes.Buffer
			if err := runPass(name, poolBase+k, false, &buf); err != nil {
				return err
			}
			_, report, _ := strings.Cut(buf.String(), "\n")
			var rep passReport
			if err := json.Unmarshal([]byte(report), &rep); err != nil {
				return err
			}
			pinned[name][strconv.FormatInt(poolBase+k, 10)] = rep.Digest
		}
	}
	b, err := json.MarshalIndent(pinned, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

func loadDigests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}
