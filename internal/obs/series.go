package obs

import (
	"fmt"
	"strings"

	"dsp/internal/cluster"
	"dsp/internal/metrics"
	"dsp/internal/sim"
	"dsp/internal/units"
)

// Core series columns, one value per preemption epoch.
const (
	colQueued      = "queued"
	colRunning     = "running"
	colBusySlots   = "busy-slots"
	colSlotUtil    = "slot-util"
	colPreemptions = "preemptions"
	colDisorders   = "disorders"
	colCompleted   = "completed"
	colRetries     = "retries"
	colSpecs       = "speculations"
	colDegrades    = "degradations"
	colSheds       = "sheds"
	colViolations  = "violations"
	colPending     = "pending-tasks"
)

// SeriesRecorder samples cluster-wide gauges at every preemption epoch
// (EpochEnded) plus the event rates accumulated since the previous
// epoch, keyed by simulation time in seconds. Export with CSV (built on
// metrics.Table) or summarize with Summary (percentiles via
// metrics.Percentile).
type SeriesRecorder struct {
	// PerNode adds node<k>-run / node<k>-wait columns for every node.
	// Off by default: 50 nodes means 100 extra columns.
	PerNode bool

	runs    []*runSeries
	pending string // label for the run the next epoch starts

	// Event-rate accumulators since the last sampled epoch.
	preempts, disorders, completed, retries, specs int
	degrades, sheds, violations                    int
}

type runSeries struct {
	label string
	table *metrics.Table
}

// NewSeriesRecorder returns an empty recorder.
func NewSeriesRecorder() *SeriesRecorder { return &SeriesRecorder{} }

// BeginRun starts a new series section; subsequent epochs land in it.
func (s *SeriesRecorder) BeginRun(label string) {
	s.pending = label
	s.runs = append(s.runs, nil) // materialized on first epoch
	s.preempts, s.disorders, s.completed, s.retries, s.specs = 0, 0, 0, 0, 0
	s.degrades, s.sheds, s.violations = 0, 0, 0
}

// Observe implements sim.Observer: events between epochs accumulate
// rates, and EpochEnded samples them with the cluster gauges.
func (s *SeriesRecorder) Observe(ev sim.Event) {
	switch ev.Kind {
	case sim.TaskPreempted:
		s.preempts++
	case sim.DisorderDetected:
		s.disorders++
	case sim.TaskCompleted:
		s.completed++
	case sim.TaskRetried:
		s.retries++
	case sim.SpeculationLaunched:
		s.specs++
	case sim.SolverDegraded:
		s.degrades++
	case sim.JobShed:
		s.sheds++
	case sim.InvariantViolated:
		s.violations++
	case sim.EpochEnded:
		s.sample(ev.At, ev.View)
	}
}

// sample records the cluster after the epoch's preemption actions were
// applied.
func (s *SeriesRecorder) sample(now units.Time, v *sim.View) {
	c := v.Cluster()
	run := s.currentRun(c)
	t := run.table
	x := now.Seconds()

	var queued, running, slots int
	for k := 0; k < c.Len(); k++ {
		node := cluster.NodeID(k)
		q := len(v.Queue(node))
		r := len(v.Running(node))
		queued += q
		running += r
		slots += c.Nodes[k].Slots
		if s.PerNode {
			t.Set(x, fmt.Sprintf("node%d-run", k), float64(r))
			t.Set(x, fmt.Sprintf("node%d-wait", k), float64(q))
		}
	}
	t.Set(x, colQueued, float64(queued))
	t.Set(x, colRunning, float64(running))
	t.Set(x, colBusySlots, float64(running))
	if slots > 0 {
		t.Set(x, colSlotUtil, float64(running)/float64(slots))
	} else {
		t.Set(x, colSlotUtil, 0)
	}
	t.Set(x, colPreemptions, float64(s.preempts))
	t.Set(x, colDisorders, float64(s.disorders))
	t.Set(x, colCompleted, float64(s.completed))
	t.Set(x, colRetries, float64(s.retries))
	t.Set(x, colSpecs, float64(s.specs))
	t.Set(x, colDegrades, float64(s.degrades))
	t.Set(x, colSheds, float64(s.sheds))
	t.Set(x, colViolations, float64(s.violations))
	pending := 0
	for _, j := range v.Jobs() {
		if j.Arrival > now || j.Failed() || j.Shed() || j.Done() {
			continue
		}
		for _, ts := range j.Tasks {
			if ts.Phase == sim.Pending {
				pending++
			}
		}
	}
	t.Set(x, colPending, float64(pending))
	s.preempts, s.disorders, s.completed, s.retries, s.specs = 0, 0, 0, 0, 0
	s.degrades, s.sheds, s.violations = 0, 0, 0
}

// currentRun returns the active run section, materializing its table
// (whose column set depends on the cluster size) on first use.
func (s *SeriesRecorder) currentRun(c *cluster.Cluster) *runSeries {
	if len(s.runs) == 0 {
		s.runs = append(s.runs, nil)
	}
	last := len(s.runs) - 1
	if s.runs[last] == nil {
		cols := []string{colQueued, colRunning, colBusySlots, colSlotUtil,
			colPreemptions, colDisorders, colCompleted, colRetries, colSpecs,
			colDegrades, colSheds, colViolations, colPending}
		if s.PerNode {
			for k := 0; k < c.Len(); k++ {
				cols = append(cols, fmt.Sprintf("node%d-run", k), fmt.Sprintf("node%d-wait", k))
			}
		}
		title := "epoch series"
		if s.pending != "" {
			title = s.pending
		}
		s.runs[last] = &runSeries{
			label: s.pending,
			table: metrics.NewTable(title, "t(s)", "", cols...),
		}
	}
	return s.runs[last]
}

// CSV renders every recorded run as CSV; multi-run output separates
// sections with "# label" comment lines.
func (s *SeriesRecorder) CSV() string {
	var b strings.Builder
	for _, r := range s.runs {
		if r == nil {
			continue // BeginRun called but no epoch sampled
		}
		if r.label != "" {
			fmt.Fprintf(&b, "# %s\n", r.label)
		}
		b.WriteString(r.table.CSV())
	}
	return b.String()
}

// Summary renders per-column distribution statistics (mean, p50, p90,
// p99, max) over each run's epochs.
func (s *SeriesRecorder) Summary() string {
	var b strings.Builder
	for _, r := range s.runs {
		if r == nil {
			continue
		}
		if r.label != "" {
			fmt.Fprintf(&b, "# %s\n", r.label)
		}
		fmt.Fprintf(&b, "%-16s %6s %10s %10s %10s %10s %10s\n",
			"column", "n", "mean", "p50", "p90", "p99", "max")
		for _, col := range r.table.Methods {
			xs := r.table.Column(col)
			var st metrics.Stats
			for _, x := range xs {
				st.Add(x)
			}
			fmt.Fprintf(&b, "%-16s %6d %10.3f %10.3f %10.3f %10.3f %10.3f\n",
				col, st.N(), st.Mean(),
				metrics.Percentile(xs, 0.50),
				metrics.Percentile(xs, 0.90),
				metrics.Percentile(xs, 0.99),
				st.Max())
		}
	}
	return b.String()
}
