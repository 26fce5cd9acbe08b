package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"dsp/internal/cluster"
	"dsp/internal/dag"
	"dsp/internal/prof"
	"dsp/internal/sim"
	"dsp/internal/units"
)

// enginePID is the synthetic trace process that carries cluster-wide
// markers (epoch ticks, run boundaries), kept clear of real node IDs.
const enginePID = 1 << 20

// profPID is the synthetic trace process that carries per-run
// scheduler-phase summary rows (see RecordPhases).
const profPID = enginePID + 1

// traceEvent is one Chrome trace-event object. Field order (and the
// sorted-key map encoding of Args) keeps the JSON byte-stable across
// runs; simulated time is microseconds, matching the format's ts unit.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type openSpan struct {
	node  cluster.NodeID
	lane  int
	start units.Time
}

// TraceBuilder converts the observer event stream into Chrome
// trace-event JSON (load the output in Perfetto, ui.perfetto.dev, or
// chrome://tracing): each node is a process, each busy slot a thread
// lane, each task occupancy a complete span. Preemptions, disorders,
// node faults and epoch ticks appear as instant events. Multi-run
// sweeps lay runs out back-to-back on the same timeline via BeginRun.
type TraceBuilder struct {
	events []traceEvent
	open   map[dag.Key]openSpan
	// busy tracks per-node lane occupancy: index = lane, true = in use.
	busy map[cluster.NodeID][]bool
	// lanes records the highest lane ever used per node, for metadata.
	lanes map[int]int
	// offset shifts event timestamps so consecutive runs don't overlap.
	offset units.Time
	maxTS  units.Time
	// hasPhases notes that RecordPhases emitted at least one summary row,
	// so Export names the synthetic phases process.
	hasPhases bool
}

// NewTraceBuilder returns an empty builder.
func NewTraceBuilder() *TraceBuilder {
	return &TraceBuilder{
		open:  make(map[dag.Key]openSpan),
		busy:  make(map[cluster.NodeID][]bool),
		lanes: make(map[int]int),
	}
}

// BeginRun shifts the time origin past everything recorded so far and
// drops a marker, so a sweep's runs render as consecutive segments.
func (tb *TraceBuilder) BeginRun(label string) {
	tb.offset = tb.maxTS
	tb.emit(traceEvent{
		Name: "run:" + label, Cat: "run", Ph: "i",
		TS: int64(tb.offset), PID: enginePID, TID: 0, S: "g",
	})
}

// RecordPhases lays one run's scheduler-phase breakdown on the synthetic
// "phases" process: a marker naming the run, then one complete span per
// phase whose length is the phase's exclusive total and whose args carry
// the count and latency quantiles. The row is a summary bar — phase time
// actually interleaves throughout the run it describes — appended after
// the runs recorded so far, so sweep harnesses call it once per finished
// cell and the bars line up in cell order.
func (tb *TraceBuilder) RecordPhases(label string, phases []prof.PhaseBreakdown) {
	if len(phases) == 0 {
		return
	}
	tb.hasPhases = true
	ts := tb.maxTS
	tb.emit(traceEvent{
		Name: "phases:" + label, Cat: "phase", Ph: "i",
		TS: int64(ts), PID: profPID, TID: 0, S: "t",
	})
	for _, ph := range phases {
		dur := int64(ph.TotalUS)
		if dur <= 0 {
			continue
		}
		tb.emit(traceEvent{
			Name: ph.Phase, Cat: "phase", Ph: "X",
			TS: int64(ts), Dur: dur, PID: profPID, TID: 0,
			Args: map[string]any{
				"run": label, "count": ph.Count,
				"p50_us": ph.P50US, "p95_us": ph.P95US,
				"p99_us": ph.P99US, "max_us": ph.MaxUS,
			},
		})
		ts += units.Time(dur)
	}
}

func (tb *TraceBuilder) emit(ev traceEvent) {
	tb.events = append(tb.events, ev)
	end := units.Time(ev.TS + ev.Dur)
	if end > tb.maxTS {
		tb.maxTS = end
	}
}

// laneFor claims the lowest free lane on the node.
func (tb *TraceBuilder) laneFor(node cluster.NodeID) int {
	lanes := tb.busy[node]
	for i, inUse := range lanes {
		if !inUse {
			lanes[i] = true
			return i
		}
	}
	tb.busy[node] = append(lanes, true)
	lane := len(lanes)
	if lane > tb.lanes[int(node)] {
		tb.lanes[int(node)] = lane
	}
	return lane
}

func (tb *TraceBuilder) release(node cluster.NodeID, lane int) {
	if lanes := tb.busy[node]; lane < len(lanes) {
		lanes[lane] = false
	}
}

// closeSpan emits the complete ("X") span for a task leaving its slot.
func (tb *TraceBuilder) closeSpan(now units.Time, key dag.Key, outcome string) {
	sp, ok := tb.open[key]
	if !ok {
		return
	}
	delete(tb.open, key)
	tb.release(sp.node, sp.lane)
	tb.emit(traceEvent{
		Name: key.String(), Cat: "task", Ph: "X",
		TS: int64(sp.start + tb.offset), Dur: int64(now - sp.start),
		PID: int(sp.node), TID: sp.lane,
		Args: map[string]any{"job": int(key.Job), "task": int(key.Task), "outcome": outcome},
	})
}

// laneOf returns the slot lane of t's open span (0 when none is open).
func (tb *TraceBuilder) laneOf(t *sim.TaskState) int {
	return tb.open[t.Key()].lane
}

// instant emits an instant event at simulated time now; scope is the
// Chrome trace "s" field ("g" global, "p" process, "t" thread).
func (tb *TraceBuilder) instant(now units.Time, name, cat string, pid, tid int, scope string, args map[string]any) {
	tb.emit(traceEvent{
		Name: name, Cat: cat, Ph: "i",
		TS: int64(now + tb.offset), PID: pid, TID: tid, S: scope,
		Args: args,
	})
}

// Observe implements sim.Observer. Task occupancies become spans; the
// other events become instants on the node they concern or, for
// cluster-wide ones, on the synthetic engine process.
func (tb *TraceBuilder) Observe(ev sim.Event) {
	now, node := ev.At, int(ev.Node)
	switch ev.Kind {
	case sim.TaskStarted:
		if _, ok := tb.lanes[node]; !ok {
			tb.lanes[node] = 0 // materialize the pid for metadata
		}
		tb.open[ev.Task.Key()] = openSpan{node: ev.Node, lane: tb.laneFor(ev.Node), start: now}
	case sim.TaskCompleted:
		tb.closeSpan(now, ev.Task.Key(), "completed")
	case sim.TaskPreempted:
		lane := tb.laneOf(ev.Task)
		tb.closeSpan(now, ev.Task.Key(), "preempted")
		args := map[string]any{"victim": ev.Task.Key().String()}
		if ev.Starter != nil {
			args["starter"] = ev.Starter.Key().String()
		}
		tb.instant(now, "preempt", "preempt", node, lane, "t", args)
	case sim.TaskEvicted:
		// A crash eviction ends any open span the instant the node goes
		// down.
		tb.closeSpan(now, ev.Task.Key(), "evicted")
	case sim.DisorderDetected:
		tb.instant(now, "disorder", "disorder", node, tb.laneOf(ev.Task), "t",
			map[string]any{"starter": ev.Starter.Key().String(), "victim": ev.Task.Key().String()})
	case sim.EpochStarted:
		tb.instant(now, "epoch", "epoch", enginePID, 0, "g", map[string]any{"epoch": ev.N})
	case sim.NodeFailed:
		tb.instant(now, "node-failed", "fault", node, 0, "p", nil)
	case sim.NodeRecovered:
		tb.instant(now, "node-recovered", "fault", node, 0, "p", nil)
	case sim.SnapshotTaken:
		tb.instant(now, "snapshot", "durability", enginePID, 0, "g", map[string]any{"period": ev.N})
	case sim.RecoveryStarted:
		tb.instant(now, "recovery", "durability", enginePID, 0, "g", map[string]any{"period": ev.N})
	case sim.Replayed:
		tb.instant(now, "replayed", "durability", enginePID, 0, "g", map[string]any{"records": ev.N})
	case sim.TaskRetried:
		// A transient fault ends the attempt's span (a crash eviction
		// already closed it via TaskEvicted).
		tb.closeSpan(now, ev.Task.Key(), "retried")
		tb.instant(now, "retry", "resilience", node, 0, "t",
			map[string]any{"task": ev.Task.Key().String(), "attempt": ev.N, "reason": ev.Retry.String()})
	case sim.TaskFailedTerminally:
		tb.closeSpan(now, ev.Task.Key(), "failed")
		tb.instant(now, "terminal-failure", "resilience", node, 0, "t",
			map[string]any{"task": ev.Task.Key().String()})
	case sim.SpeculationLaunched:
		// Backup copies never fire TaskStarted (one open span per task
		// key), so they appear as instants on the backup node rather than
		// slot-lane spans.
		tb.instant(now, "spec-launched", "speculation", int(ev.Peer), 0, "t",
			map[string]any{"task": ev.Task.Key().String(), "primary": node})
	case sim.SpeculationWon:
		tb.closeSpan(now, ev.Task.Key(), "lost-to-backup")
		tb.instant(now, "spec-won", "speculation", node, 0, "t",
			map[string]any{"task": ev.Task.Key().String(), "loser": int(ev.Peer)})
	case sim.SpeculationCancelled:
		tb.instant(now, "spec-cancelled", "speculation", node, 0, "t",
			map[string]any{"task": ev.Task.Key().String()})
	case sim.NodeBlacklisted:
		tb.instant(now, "blacklisted", "fault", node, 0, "p", nil)
	case sim.SolverDegraded:
		d := ev.Degradation
		tb.instant(now, "solver-degraded", "overload", enginePID, 0, "g",
			map[string]any{"from": d.From.String(), "to": d.To.String(),
				"reason": d.Reason, "pending_tasks": d.PendingTasks})
	case sim.JobShed:
		tb.instant(now, "job-shed", "overload", enginePID, 0, "g",
			map[string]any{"job": int(ev.Job.Dag.ID), "reason": ev.Shed.String()})
	case sim.InvariantViolated:
		v := ev.Violation
		args := map[string]any{"check": v.Check, "detail": v.Detail}
		if v.Task != nil {
			args["task"] = v.Task.Key().String()
		}
		tb.instant(now, "invariant-violated", "audit", int(v.Node), 0, "p", args)
	}
}

// Export renders the trace as a JSON object with one event per line
// (valid Chrome trace-event format, and diff-friendly). Metadata events
// naming processes and thread lanes come first, in sorted order, so the
// output is byte-stable.
func (tb *TraceBuilder) Export(w io.Writer) error {
	// Close anything still open at the last observed instant (defensive;
	// a completed simulation leaves no open spans).
	if len(tb.open) > 0 {
		keys := make([]dag.Key, 0, len(tb.open))
		for k := range tb.open {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].Job != keys[b].Job {
				return keys[a].Job < keys[b].Job
			}
			return keys[a].Task < keys[b].Task
		})
		end := tb.maxTS
		for _, k := range keys {
			tb.closeSpan(end, k, "open-at-end")
		}
	}

	var meta []traceEvent
	meta = append(meta, traceEvent{
		Name: "process_name", Ph: "M", PID: enginePID, TID: 0,
		Args: map[string]any{"name": "engine"},
	})
	if tb.hasPhases {
		meta = append(meta, traceEvent{
			Name: "process_name", Ph: "M", PID: profPID, TID: 0,
			Args: map[string]any{"name": "phases"},
		})
	}
	pids := make([]int, 0, len(tb.lanes))
	for pid := range tb.lanes {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		meta = append(meta,
			traceEvent{Name: "process_name", Ph: "M", PID: pid, TID: 0,
				Args: map[string]any{"name": fmt.Sprintf("node%d", pid)}},
			traceEvent{Name: "process_sort_index", Ph: "M", PID: pid, TID: 0,
				Args: map[string]any{"sort_index": pid}},
		)
		for lane := 0; lane <= tb.lanes[pid]; lane++ {
			meta = append(meta, traceEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: lane,
				Args: map[string]any{"name": fmt.Sprintf("slot%d", lane)},
			})
		}
	}

	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	all := append(meta, tb.events...)
	for i, ev := range all {
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(all)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", data, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}
