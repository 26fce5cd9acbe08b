package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dsp/internal/prof"
)

// Cell is one independent unit of sweep work: a single simulation run (or
// a small bundle of runs) whose inputs are derived deterministically from
// the cell's own parameters. Run executes the work and returns a commit
// closure that writes the results into the sweep's tables; the runner
// executes Run bodies concurrently but invokes the commits serially, in
// input order, so the assembled tables are identical regardless of worker
// count or completion order.
type Cell struct {
	// Label identifies the cell in observer artifacts and bench reports.
	Label string
	// Run executes the cell and returns the closure that commits its
	// results. Run must not touch shared sweep state (tables, observers);
	// everything shared happens in the returned commit.
	//
	// tm is the cell's phase timer — nil unless the sweep collects stats
	// or profiles. Cells running simulations pass it through as
	// sim.Config.Prof so the run's phase breakdown lands in the cell's
	// stats; ignoring it is also valid (the cell then reports all its
	// time as cell-other).
	Run func(tm *prof.Timer) (commit func(), err error)
}

// SweepStat records how one sweep's cell fan-out executed.
type SweepStat struct {
	// Name identifies the sweep (e.g. "fig5-real-cluster").
	Name string `json:"name"`
	// Workers is the number of workers the runner actually used.
	Workers int `json:"workers"`
	// Cells is the number of cells executed.
	Cells int `json:"cells"`
	// WallMS is the sweep's wall-clock time in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// CellsPerSec is Cells divided by wall time.
	CellsPerSec float64 `json:"cells_per_sec"`
	// CellTimes holds each cell's own execution time, in input order.
	CellTimes []CellTime `json:"cell_us"`
}

// CellTime is one cell's label and execution time in microseconds,
// plus — when the sweep was profiled — its per-phase breakdown in blame
// order. Phases is the dsp-bench-sweep/v2 addition; v1 readers ignore
// the unknown field and v1 reports simply omit it.
type CellTime struct {
	Label  string                `json:"label"`
	US     float64               `json:"us"`
	Phases []prof.PhaseBreakdown `json:"phases,omitempty"`
}

// SweepStats accumulates one SweepStat per runCells invocation. Attach it
// via Options.Stats; the sweep functions themselves run serially with
// respect to each other, so no locking is needed.
type SweepStats struct {
	Sweeps []SweepStat `json:"sweeps"`
}

// TotalWallMS sums the recorded sweeps' wall times.
func (s *SweepStats) TotalWallMS() float64 {
	var total float64
	for _, sw := range s.Sweeps {
		total += sw.WallMS
	}
	return total
}

// runCells executes a sweep's cells across Options.Workers workers and
// commits their results in input order.
//
// Determinism: each cell derives its workload from its own parameters
// (workloadFor splits the sweep seed per cell), Run bodies share no
// mutable state, and commits are applied serially in input order after
// every earlier cell has committed — so the assembled tables, and any
// BENCH/figure output rendered from them, are byte-identical for every
// worker count, including 1. The package test
// TestParallelSweepMatchesSerial locks this in.
//
// An attached Observer forces a single worker: observers receive decision
// streams whose interleaving is part of their output, and obs.Sink is not
// safe for concurrent use. Errors surface as the first failing cell in
// input order, matching a serial run's error.
func runCells(name string, o Options, cells []Cell) error {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if o.Observer != nil {
		workers = 1
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	// Profile cells whenever someone consumes the result: a stats sink
	// (bench reports carry per-cell phase breakdowns), a process-wide
	// aggregate timer, or a phase-recording observer (trace export).
	rec, _ := o.Observer.(PhaseRecorder)
	profiled := o.Stats != nil || o.Prof != nil || rec != nil

	start := time.Now()
	commits := make([]func(), len(cells))
	errs := make([]error, len(cells))
	cellUS := make([]float64, len(cells))
	var snaps []prof.Snapshot
	if profiled {
		snaps = make([]prof.Snapshot, len(cells))
	}

	run := func(i int) {
		if !profiled {
			t0 := time.Now()
			commits[i], errs[i] = cells[i].Run(nil)
			cellUS[i] = float64(time.Since(t0).Microseconds())
			return
		}
		// The cell-other root phase opens after t0 and unwinds before the
		// wall reading, so the cell's phase totals tile (a hair under) its
		// recorded wall time: everything sim.Run doesn't claim stays in
		// cell-other. Unwind also closes any frames an error path left
		// open inside the simulation. The timer is allocated before t0:
		// a GC assist charged to that allocation on a loaded machine is
		// profiler cost, and took milliseconds outside every phase.
		tm := prof.New()
		t0 := time.Now()
		tm.Enter(prof.PhaseCellOther)
		commits[i], errs[i] = cells[i].Run(tm)
		tm.Unwind()
		cellUS[i] = float64(time.Since(t0).Microseconds())
		snaps[i] = tm.Snapshot()
	}

	if workers <= 1 {
		for i := range cells {
			run(i)
			if errs[i] != nil {
				break // serial semantics: stop at the first failure
			}
		}
	} else {
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1))
					if i >= len(cells) {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}

	var firstErr error
	for i := range cells {
		if errs[i] != nil {
			firstErr = errs[i]
			break
		}
		if commits[i] != nil {
			commits[i]()
		}
	}

	var breakdowns [][]prof.PhaseBreakdown
	if profiled {
		breakdowns = make([][]prof.PhaseBreakdown, len(cells))
		for i := range snaps {
			breakdowns[i] = snaps[i].Breakdown()
			if o.Prof != nil {
				o.Prof.Merge(snaps[i])
			}
			// Forward after the commit pass, serially and in input order,
			// so a phase-recording observer sees the same deterministic
			// stream at every worker count.
			if rec != nil && breakdowns[i] != nil {
				rec.RecordPhases(cells[i].Label, breakdowns[i])
			}
		}
	}

	if o.Stats != nil {
		wall := time.Since(start)
		stat := SweepStat{
			Name:    name,
			Workers: workers,
			Cells:   len(cells),
			WallMS:  float64(wall.Microseconds()) / 1e3,
		}
		if wall > 0 {
			stat.CellsPerSec = float64(len(cells)) / wall.Seconds()
		}
		for i, c := range cells {
			ct := CellTime{Label: c.Label, US: cellUS[i]}
			if breakdowns != nil {
				ct.Phases = breakdowns[i]
			}
			stat.CellTimes = append(stat.CellTimes, ct)
		}
		o.Stats.Sweeps = append(o.Stats.Sweeps, stat)
	}
	return firstErr
}
