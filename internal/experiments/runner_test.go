package experiments

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dsp/internal/prof"
	"dsp/internal/sim"
	"dsp/internal/units"
)

// fastOptions returns a sweep configuration small enough for unit tests
// but large enough that cells do real simulation work.
func fastOptions() Options {
	return Options{
		Scale:          0.02,
		Seed:           20180901,
		Period:         5 * units.Minute,
		Epoch:          10 * units.Second,
		JobCounts:      []int{20, 40},
		ScaleJobCounts: []int{20, 40},
	}
}

// TestParallelSweepMatchesSerial is the determinism guarantee the runner
// documents: the rendered sweep tables must be byte-identical at every
// worker count. It renders Fig5 and a sensitivity sweep serially and at 8
// workers and compares the output bytes.
func TestParallelSweepMatchesSerial(t *testing.T) {
	render := func(workers int) string {
		o := fastOptions()
		o.Workers = workers
		fig5, err := Fig5(Real, o)
		if err != nil {
			t.Fatalf("workers=%d: Fig5: %v", workers, err)
		}
		sens, err := Sensitivity(ParamGamma, []float64{0.3, 0.7}, Real, 20, o)
		if err != nil {
			t.Fatalf("workers=%d: Sensitivity: %v", workers, err)
		}
		return fig5.Render() + "\n" + sens.Render()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("parallel sweep output differs from serial:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, parallel)
	}
}

// TestRunCellsCommitsInInputOrder: commits must be applied in input
// order even when later cells finish first. Cells sleep in reverse
// proportion to their index, so under 4 workers the completion order is
// roughly the reverse of the input order.
func TestRunCellsCommitsInInputOrder(t *testing.T) {
	const n = 8
	var mu sync.Mutex
	var got []int
	cells := make([]Cell, n)
	for i := 0; i < n; i++ {
		cells[i] = Cell{Label: fmt.Sprintf("cell-%d", i), Run: func(tm *prof.Timer) (func(), error) {
			time.Sleep(time.Duration(n-i) * 2 * time.Millisecond)
			return func() {
				mu.Lock()
				got = append(got, i)
				mu.Unlock()
			}, nil
		}}
	}
	o := Options{Workers: 4}
	if err := runCells("order-test", o, cells); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("commit order %v, want ascending input order", got)
		}
	}
	if len(got) != n {
		t.Fatalf("committed %d cells, want %d", len(got), n)
	}
}

// TestRunCellsFirstErrorInInputOrder: the runner must report the first
// failing cell in INPUT order (matching a serial run) and must not apply
// commits at or after that cell, even if later cells also fail or
// complete first.
func TestRunCellsFirstErrorInInputOrder(t *testing.T) {
	errA := errors.New("boom-2")
	errB := errors.New("boom-5")
	var mu sync.Mutex
	committed := map[int]bool{}
	mk := func(i int, fail error) Cell {
		return Cell{Label: fmt.Sprintf("cell-%d", i), Run: func(tm *prof.Timer) (func(), error) {
			if fail != nil {
				return nil, fail
			}
			return func() {
				mu.Lock()
				committed[i] = true
				mu.Unlock()
			}, nil
		}}
	}
	cells := []Cell{mk(0, nil), mk(1, nil), mk(2, errA), mk(3, nil), mk(4, nil), mk(5, errB)}
	err := runCells("error-test", Options{Workers: 4}, cells)
	if !errors.Is(err, errA) {
		t.Fatalf("got error %v, want first input-order error %v", err, errA)
	}
	if !committed[0] || !committed[1] {
		t.Errorf("cells before the failure must commit: %v", committed)
	}
	for i := 2; i < 6; i++ {
		if committed[i] {
			t.Errorf("cell %d at/after the first failure committed: %v", i, committed)
		}
	}
}

// TestRunCellsRecordsStats: an attached SweepStats must record the sweep
// name, cell count, per-cell labels in input order, and the worker count
// actually used.
func TestRunCellsRecordsStats(t *testing.T) {
	cells := []Cell{
		{Label: "a", Run: func(tm *prof.Timer) (func(), error) { return nil, nil }},
		{Label: "b", Run: func(tm *prof.Timer) (func(), error) { return nil, nil }},
		{Label: "c", Run: func(tm *prof.Timer) (func(), error) { return nil, nil }},
	}
	stats := &SweepStats{}
	o := Options{Workers: 8, Stats: stats}
	if err := runCells("stats-test", o, cells); err != nil {
		t.Fatal(err)
	}
	if len(stats.Sweeps) != 1 {
		t.Fatalf("recorded %d sweeps, want 1", len(stats.Sweeps))
	}
	s := stats.Sweeps[0]
	if s.Name != "stats-test" || s.Cells != 3 {
		t.Errorf("stat = %+v, want name stats-test, 3 cells", s)
	}
	if s.Workers != 3 {
		t.Errorf("workers = %d, want 3 (capped at cell count)", s.Workers)
	}
	want := []string{"a", "b", "c"}
	if len(s.CellTimes) != len(want) {
		t.Fatalf("recorded %d cell times, want %d", len(s.CellTimes), len(want))
	}
	for i, ct := range s.CellTimes {
		if ct.Label != want[i] {
			t.Errorf("cell time %d label %q, want %q (input order)", i, ct.Label, want[i])
		}
	}
	if s.WallMS < 0 || stats.TotalWallMS() != s.WallMS {
		t.Errorf("wall accounting inconsistent: %v vs %v", s.WallMS, stats.TotalWallMS())
	}
}

// TestSweepPhaseBreakdownSumsToCellWall is the v2 schema's core
// accounting claim: every profiled cell's phase totals must sum to
// within 5% of the cell's recorded wall time (the exclusive-stack timer
// tiles wall time by construction; only the few clock reads outside the
// root phase escape it).
func TestSweepPhaseBreakdownSumsToCellWall(t *testing.T) {
	o := fastOptions()
	o.Workers = 2
	o.Stats = &SweepStats{}
	if _, err := Fig6(Real, o); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, sw := range o.Stats.Sweeps {
		for _, ct := range sw.CellTimes {
			if len(ct.Phases) == 0 {
				t.Errorf("%s/%s: profiled sweep recorded no phases", sw.Name, ct.Label)
				continue
			}
			var sum float64
			for _, ph := range ct.Phases {
				sum += ph.TotalUS
			}
			// 5% relative plus a 200µs absolute floor so sub-millisecond
			// cells don't fail on fixed scheduling jitter.
			slack := 0.05*ct.US + 200
			if diff := ct.US - sum; diff < -slack || diff > slack {
				t.Errorf("%s/%s: phase sum %.0fµs vs cell wall %.0fµs (diff %.0fµs > slack %.0fµs)",
					sw.Name, ct.Label, sum, ct.US, diff, slack)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no cells checked")
	}
}

// TestSweepMergesAggregateProf: Options.Prof must accumulate every
// cell's phases, and a DSP+preemptor sweep must populate the hot-path
// phases the tentpole exists to measure.
func TestSweepMergesAggregateProf(t *testing.T) {
	o := fastOptions()
	o.Workers = 2
	o.Prof = prof.New()
	if _, err := Fig6(Real, o); err != nil {
		t.Fatal(err)
	}
	s := o.Prof.Snapshot()
	for _, p := range []prof.Phase{prof.PhaseSetup, prof.PhaseSchedule, prof.PhaseEpochPolicy,
		prof.PhaseVerdictScan, prof.PhaseMemoEval, prof.PhaseTaskComplete,
		prof.PhaseEventPump, prof.PhaseCellOther} {
		if s[p].Count == 0 {
			t.Errorf("aggregate phase %s never recorded", p)
		}
	}
}

// phaseCollector is a test observer that records RecordPhases calls.
type phaseCollector struct {
	labels []string
}

func (c *phaseCollector) Observe(sim.Event) {}

func (c *phaseCollector) RecordPhases(label string, phases []prof.PhaseBreakdown) {
	c.labels = append(c.labels, label)
}

// TestRunCellsForwardsPhasesToRecorder: a PhaseRecorder observer must
// receive each cell's breakdown in input order.
func TestRunCellsForwardsPhasesToRecorder(t *testing.T) {
	col := &phaseCollector{}
	o := fastOptions()
	o.Observer = col
	o.JobCounts = []int{20}
	if _, err := Fig5(Real, o); err != nil {
		t.Fatal(err)
	}
	want := 1 * len(SchedulerNames())
	if len(col.labels) != want {
		t.Fatalf("recorder saw %d cells, want %d: %v", len(col.labels), want, col.labels)
	}
	wantLabels := []string{}
	for _, name := range SchedulerNames() {
		wantLabels = append(wantLabels, fmt.Sprintf("fig5-%s-%s-h%d", Real, name, 20))
	}
	for i := range wantLabels {
		if col.labels[i] != wantLabels[i] {
			t.Errorf("recorder label %d = %q, want %q", i, col.labels[i], wantLabels[i])
		}
	}
}
