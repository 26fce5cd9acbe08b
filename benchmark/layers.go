package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names; TestBenchmarkJSONMatchesProgram keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced run's metrics. Every workload reports every
// one; the README defines what each means on a sweep and on a daemon.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"cpu_ms_per_job", "ms"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

// phaseMetric maps every internal/prof phase to the per-layer metric
// that reports it, named after the module that owns the phase. sweep
// cells and the daemon's /metrics both report these phases, so one map
// serves all four workloads.
var phaseMetric = map[string]string{
	"setup":         "sim.setup",
	"plan-build":    "sim.plan_build",
	"schedule":      "sched.schedule",
	"ilp-solve":     "sched.ilp_solve",
	"sched-list":    "sched.list",
	"sched-fifo":    "sched.fifo",
	"assign-apply":  "sim.assign_apply",
	"epoch-policy":  "preempt.epoch_policy",
	"memo-rebuild":  "preempt.memo_rebuild",
	"memo-eval":     "preempt.memo_eval",
	"verdict-scan":  "preempt.verdict_scan",
	"action-apply":  "sim.action_apply",
	"task-complete": "sim.task_complete",
	"event-pump":    "sim.event_pump",
	"admission":     "sim.admission",
	"audit":         "sim.audit",
	"spans":         "sim.spans",
	"finalize":      "sim.finalize",
	"snapshot":      "recover.snapshot",
	"cell-other":    "experiments.cell_other",
	"serve-period":  "serve.period",
}

// countedPhases also report their call count per job: the phases the
// open ROADMAP items target.
var countedPhases = []string{"epoch-policy", "memo-eval", "sched-list", "schedule", "snapshot", "serve-period"}

// phaseOrder lists the phases in the prof taxonomy's order, so the
// per-layer table prints in a stable order.
var phaseOrder = []string{
	"setup", "plan-build", "schedule", "ilp-solve", "sched-list", "sched-fifo",
	"assign-apply", "epoch-policy", "memo-rebuild", "memo-eval", "verdict-scan",
	"action-apply", "task-complete", "event-pump", "admission", "audit", "spans",
	"finalize", "snapshot", "cell-other", "serve-period",
}

// extraLayer are the per-layer metrics that do not come from a prof
// phase. A metric that does not apply to a workload reads 0 there.
var extraLayer = []metricDef{
	{"experiments.cell_max_s", "s"},
	{"experiments.phase_cover", "ratio"},
	{"serve.outside_engine_us", "us/job"},
	{"serve.period_mean_ms", "ms"},
	{"serve.clock_lag_p99_ms", "ms"},
	{"serve.cpu_growth", "ratio"},
	{"serve.journal_bytes_per_job", "B/job"},
	{"serve.write_calls_per_job", "1/job"},
	{"serve.heap_peak_mib", "MiB"},
	{"serve.post_p99_ms", "ms"},
	{"serve.post_max_ms", "ms"},
	{"serve.post_n", "count"},
	{"serve.get_p50_ms", "ms"},
	{"serve.get_p90_ms", "ms"},
	{"serve.get_p99_ms", "ms"},
	{"serve.get_max_ms", "ms"},
	{"serve.get_n", "count"},
	{"serve.job_resp_p50_vs", "vs"},
	{"serve.job_resp_p99_vs", "vs"},
	{"recover.write_bytes_per_job", "B/job"},
	{"trace.decode_us_p50", "us"},
	{"trace.encode_us_p50", "us"},
	{"disk.fsync_p50_ms", "ms"},
	{"disk.fsync_p99_ms", "ms"},
	{"load.conn_wait_p99_ms", "ms"},
	{"load.gen_late_p99_ms", "ms"},
}

// perLayer is the traced run's full metric list.
func perLayer() []metricDef {
	var defs []metricDef
	for _, ph := range phaseOrder {
		defs = append(defs, metricDef{phaseMetric[ph] + "_us", "us/job"})
	}
	for _, ph := range countedPhases {
		defs = append(defs, metricDef{phaseMetric[ph] + "_n", "1/job"})
	}
	return append(defs, extraLayer...)
}

// phaseTotals accumulates prof phase totals (microseconds) and counts.
type phaseTotals map[string]struct{ us, n float64 }

func (p phaseTotals) add(phase string, us, n float64) {
	t := p[phase]
	t.us += us
	t.n += n
	p[phase] = t
}

// engineUS sums the exclusive phases, leaving out serve-period, which
// overlaps them.
func (p phaseTotals) engineUS() float64 {
	var t float64
	for ph, v := range p {
		if ph != "serve-period" {
			t += v.us
		}
	}
	return t
}

// phaseMetrics turns phase totals over jobs scheduled jobs into the
// per-job layer metrics.
func phaseMetrics(p phaseTotals, jobs float64, m metricMap) {
	if jobs <= 0 {
		return
	}
	for ph, name := range phaseMetric {
		m.set(name+"_us", p[ph].us/jobs, "us/job")
	}
	for _, ph := range countedPhases {
		m.set(phaseMetric[ph]+"_n", p[ph].n/jobs, "1/job")
	}
}

// metricMap is a run's named results.
type metricMap map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricMap) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// only returns the subset of m that defs name, filling any missing one
// with 0 so every listed metric is printed.
func (m metricMap) only(defs []metricDef) metricMap {
	out := metricMap{}
	for _, d := range defs {
		v := m[d.name]
		v.Unit = d.unit
		out[d.name] = v
	}
	return out
}
