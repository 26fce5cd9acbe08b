package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"dsp/internal/attrib"
	"dsp/internal/cluster"
	"dsp/internal/dag"
	"dsp/internal/sim"
	"dsp/internal/units"
)

// AuditWriter streams a JSONL decision log: one JSON object per line,
// one line per decision-level event, in simulation order. It answers
// queries like "why was task X preempted at t=Y" (grep the candidate or
// victim key) and lets offline tooling recompute any counter the engine
// reports. Every task-timeline span is logged ("span" lines) and every
// completed job gets a "job-blame" line carrying its realized critical
// path and blame vector, so cmd/dspexplain can reproduce — and verify —
// the full latency attribution from the JSONL alone. Fields are printed
// in a fixed order so output is byte-stable for a given run.
type AuditWriter struct {
	w   *bufio.Writer
	cw  *countingWriter
	rec *attrib.Recorder
	// Verdicts tallies PreemptionConsidered lines by verdict string, a
	// convenience for cross-checking against sim.Result totals.
	Verdicts map[string]int
}

// countingWriter tracks how many bytes have reached the underlying
// stream, so Offset can report the audit position for crash-recovery
// snapshots.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// NewAuditWriter wraps w in a buffered JSONL emitter; call Flush when
// the run finishes.
func NewAuditWriter(w io.Writer) *AuditWriter {
	cw := &countingWriter{w: w}
	a := &AuditWriter{w: bufio.NewWriter(cw), cw: cw, Verdicts: make(map[string]int)}
	a.rec = attrib.NewRecorder()
	a.rec.OnJob(a.writeJobBlame)
	return a
}

// Offset returns the logical byte offset of the audit stream: bytes
// written through plus bytes still buffered. With SetBaseOffset it is
// the absolute position in a resumed audit file; crash-recovery
// snapshots store it so resume can truncate the file to exactly the
// prefix the snapshot saw.
func (a *AuditWriter) Offset() int64 { return a.cw.n + int64(a.w.Buffered()) }

// SetBaseOffset declares that the underlying writer is already
// positioned n bytes into the stream (a resumed audit file opened at
// its truncation point), so Offset reports absolute file positions.
func (a *AuditWriter) SetBaseOffset(n int64) { a.cw.n = n }

// jstr renders a free-form string as a JSON string literal. %q is not a
// JSON escaper — it emits Go escapes like \a and \x07 that json.Valid
// rejects — so every field that can carry arbitrary text (run labels,
// degradation reasons, violation details) goes through here instead.
func jstr(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `""` // cannot happen for a string input
	}
	return string(b)
}

// BeginRun writes a run-boundary marker so multi-run sweeps (dspbench)
// keep their decisions attributable, and resets the per-run attribution
// state.
func (a *AuditWriter) BeginRun(label string) {
	a.rec.Reset()
	fmt.Fprintf(a.w, "{\"ev\":\"run\",\"label\":%s}\n", jstr(label))
}

// Observe implements sim.Observer: one line per decision-level event.
// RecoveryStarted and Replayed are deliberately NOT audited: they only
// happen on resumed processes, and auditing them would make a recovered
// run's log differ from the uninterrupted baseline.
func (a *AuditWriter) Observe(ev sim.Event) {
	now := int64(ev.At)
	switch ev.Kind {
	case sim.PreemptionConsidered:
		d := ev.Decision
		verdict := d.Verdict.String()
		a.Verdicts[verdict]++
		fmt.Fprintf(a.w,
			"{\"t\":%d,\"ev\":\"preempt-considered\",\"node\":%d,\"candidate\":%q,\"victim\":%q,"+
				"\"candidate_pr\":%g,\"victim_pr\":%g,\"gain\":%g,\"overhead\":%g,\"urgent\":%t,\"verdict\":%q}\n",
			now, int(d.Node), d.Candidate.Key().String(), d.Victim.Key().String(),
			d.CandidatePriority, d.VictimPriority, d.Gain, d.Overhead, d.Urgent, verdict)
	case sim.TaskPreempted:
		skey := ""
		if ev.Starter != nil {
			skey = ev.Starter.Key().String()
		}
		fmt.Fprintf(a.w, "{\"t\":%d,\"ev\":\"preempted\",\"node\":%d,\"victim\":%q,\"starter\":%q}\n",
			now, int(ev.Node), ev.Task.Key().String(), skey)
	case sim.DisorderDetected:
		fmt.Fprintf(a.w, "{\"t\":%d,\"ev\":\"disorder\",\"node\":%d,\"starter\":%q,\"victim\":%q}\n",
			now, int(ev.Node), ev.Starter.Key().String(), ev.Task.Key().String())
	case sim.EpochEnded:
		a.writeEpoch(now, ev.N, ev.View)
	case sim.NodeFailed:
		fmt.Fprintf(a.w, "{\"t\":%d,\"ev\":\"node-failed\",\"node\":%d}\n", now, int(ev.Node))
	case sim.NodeRecovered:
		fmt.Fprintf(a.w, "{\"t\":%d,\"ev\":\"node-recovered\",\"node\":%d}\n", now, int(ev.Node))
	case sim.TaskEvicted:
		fmt.Fprintf(a.w, "{\"t\":%d,\"ev\":\"evicted\",\"node\":%d,\"task\":%q}\n",
			now, int(ev.Node), ev.Task.Key().String())
	case sim.TaskRequeued:
		fmt.Fprintf(a.w, "{\"t\":%d,\"ev\":\"requeued\",\"node\":%d,\"task\":%q,\"reason\":%q}\n",
			now, int(ev.Node), ev.Task.Key().String(), ev.Requeue.String())
	case sim.TaskRetried:
		fmt.Fprintf(a.w, "{\"t\":%d,\"ev\":\"retried\",\"node\":%d,\"task\":%q,\"attempt\":%d,\"reason\":%q}\n",
			now, int(ev.Node), ev.Task.Key().String(), ev.N, ev.Retry.String())
	case sim.TaskFailedTerminally:
		fmt.Fprintf(a.w, "{\"t\":%d,\"ev\":\"failed\",\"node\":%d,\"task\":%q}\n",
			now, int(ev.Node), ev.Task.Key().String())
	case sim.SpeculationLaunched:
		fmt.Fprintf(a.w, "{\"t\":%d,\"ev\":\"spec-launched\",\"task\":%q,\"primary\":%d,\"backup\":%d}\n",
			now, ev.Task.Key().String(), int(ev.Node), int(ev.Peer))
	case sim.SpeculationWon:
		fmt.Fprintf(a.w, "{\"t\":%d,\"ev\":\"spec-won\",\"task\":%q,\"winner\":%d,\"loser\":%d}\n",
			now, ev.Task.Key().String(), int(ev.Node), int(ev.Peer))
	case sim.SpeculationCancelled:
		fmt.Fprintf(a.w, "{\"t\":%d,\"ev\":\"spec-cancelled\",\"task\":%q,\"backup\":%d}\n",
			now, ev.Task.Key().String(), int(ev.Node))
	case sim.NodeBlacklisted:
		fmt.Fprintf(a.w, "{\"t\":%d,\"ev\":\"blacklisted\",\"node\":%d}\n", now, int(ev.Node))
	case sim.SolverDegraded:
		d := ev.Degradation
		fmt.Fprintf(a.w, "{\"t\":%d,\"ev\":\"solver-degraded\",\"from\":%q,\"to\":%q,\"reason\":%s,\"pending_tasks\":%d,\"bnb_nodes\":%d}\n",
			now, d.From.String(), d.To.String(), jstr(d.Reason), d.PendingTasks, d.Nodes)
	case sim.JobShed:
		fmt.Fprintf(a.w, "{\"t\":%d,\"ev\":\"job-shed\",\"job\":%d,\"reason\":%q}\n",
			now, int(ev.Job.Dag.ID), ev.Shed.String())
	case sim.InvariantViolated:
		v := ev.Violation
		tkey := ""
		if v.Task != nil {
			tkey = v.Task.Key().String()
		}
		fmt.Fprintf(a.w, "{\"t\":%d,\"ev\":\"invariant-violated\",\"check\":%q,\"node\":%d,\"task\":%q,\"detail\":%s}\n",
			now, v.Check, int(v.Node), tkey, jstr(v.Detail))
	case sim.TaskSpanClosed:
		// The raw material for offline latency attribution.
		sp := ev.Span
		fmt.Fprintf(a.w, "{\"t\":%d,\"ev\":\"span\",\"task\":%q,\"kind\":%q,\"cause\":%q,\"node\":%d,\"start\":%d,\"end\":%d}\n",
			int64(sp.End), sp.Task.Key().String(), sp.Kind.String(), sp.Cause.String(),
			int(sp.Node), int64(sp.Start), int64(sp.End))
		a.rec.Observe(ev)
	case sim.JobCompleted:
		// The internal recorder attributes the job and writeJobBlame (its
		// OnJob callback) emits the line.
		a.rec.Observe(ev)
	case sim.SnapshotTaken:
		// The engine emits the event before the durability sink reads
		// Offset, so the line lands inside the snapshot's audit prefix and
		// a resumed run's audit stays byte-identical to an uninterrupted
		// one.
		fmt.Fprintf(a.w, "{\"t\":%d,\"ev\":\"snapshot\",\"period\":%d}\n", now, ev.N)
	}
}

// writeEpoch writes one summary line per epoch with cluster-wide gauges
// sampled after the epoch's actions were applied.
func (a *AuditWriter) writeEpoch(now int64, epoch int, v *sim.View) {
	var queued, running, busy, slots int
	c := v.Cluster()
	for k := 0; k < c.Len(); k++ {
		node := cluster.NodeID(k)
		queued += len(v.Queue(node))
		r := len(v.Running(node))
		running += r
		busy += r
		slots += c.Nodes[k].Slots
	}
	fmt.Fprintf(a.w, "{\"t\":%d,\"ev\":\"epoch\",\"epoch\":%d,\"queued\":%d,\"running\":%d,\"busy_slots\":%d,\"total_slots\":%d}\n",
		now, epoch, queued, running, busy, slots)
}

// spanKindByName inverts sim.SpanKind.String for audit rehydration.
var spanKindByName = map[string]sim.SpanKind{
	"pending":      sim.SpanPending,
	"queued":       sim.SpanQueued,
	"suspend-wait": sim.SpanSuspendWait,
	"backoff":      sim.SpanBackoff,
	"blocked":      sim.SpanBlocked,
	"overhead":     sim.SpanOverhead,
	"service":      sim.SpanService,
	"lost":         sim.SpanLost,
}

// spanCauseByName inverts sim.SpanCause.String for audit rehydration.
var spanCauseByName = map[string]sim.SpanCause{
	"none":       sim.CauseNone,
	"preemption": sim.CausePreemption,
	"task-fault": sim.CauseTaskFault,
	"crash":      sim.CauseCrash,
}

// Rehydrate replays the span lines of an existing audit prefix into the
// internal attribution recorder, so jobs that complete after a crash
// resume still get correct "job-blame" lines. resolve maps a span's
// task identity to its live state in the resumed engine; returning nil
// skips the span (jobs already settled before the snapshot were fully
// attributed in the prefix and must not be replayed).
func (a *AuditWriter) Rehydrate(r io.Reader, resolve func(job dag.JobID, task dag.TaskID) *sim.TaskState) error {
	type spanLine struct {
		Ev    string `json:"ev"`
		Task  string `json:"task"`
		Kind  string `json:"kind"`
		Cause string `json:"cause"`
		Node  int    `json:"node"`
		Start int64  `json:"start"`
		End   int64  `json:"end"`
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024) // job-blame lines can be long
	for sc.Scan() {
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var line spanLine
		if err := json.Unmarshal(b, &line); err != nil {
			return fmt.Errorf("obs: rehydrate: bad audit line: %w", err)
		}
		if line.Ev != "span" {
			continue
		}
		var job, task int
		if _, err := fmt.Sscanf(line.Task, "J%d.T%d", &job, &task); err != nil {
			return fmt.Errorf("obs: rehydrate: bad task key %q: %w", line.Task, err)
		}
		kind, ok := spanKindByName[line.Kind]
		if !ok {
			return fmt.Errorf("obs: rehydrate: unknown span kind %q", line.Kind)
		}
		cause, ok := spanCauseByName[line.Cause]
		if !ok {
			return fmt.Errorf("obs: rehydrate: unknown span cause %q", line.Cause)
		}
		ts := resolve(dag.JobID(job), dag.TaskID(task))
		if ts == nil {
			continue
		}
		a.rec.Observe(sim.Event{Kind: sim.TaskSpanClosed, At: units.Time(line.End), Span: sim.TaskSpan{
			Task:  ts,
			Kind:  kind,
			Cause: cause,
			Node:  cluster.NodeID(line.Node),
			Start: units.Time(line.Start),
			End:   units.Time(line.End),
		}})
	}
	return sc.Err()
}

// auditStep mirrors attrib.Step for the JSONL encoding.
type auditStep struct {
	Task  int          `json:"task"`
	Start int64        `json:"start"`
	End   int64        `json:"end"`
	Blame attrib.Blame `json:"blame"`
}

// auditBlame is the "job-blame" line layout.
type auditBlame struct {
	T          int64        `json:"t"`
	Ev         string       `json:"ev"`
	Job        int          `json:"job"`
	Arrival    int64        `json:"arrival"`
	Eligible   int64        `json:"eligible"`
	Done       int64        `json:"done"`
	Completion int64        `json:"completion"`
	Blame      attrib.Blame `json:"blame"`
	Path       []auditStep  `json:"path"`
}

// writeJobBlame emits the full attribution of one completed job: its
// blame vector and the realized critical path with per-step blame, so
// dspexplain can both display and independently re-derive the result.
func (a *AuditWriter) writeJobBlame(att attrib.JobAttribution) {
	line := auditBlame{
		T:          int64(att.DoneAt),
		Ev:         "job-blame",
		Job:        int(att.Job),
		Arrival:    int64(att.Arrival),
		Eligible:   int64(att.Eligible),
		Done:       int64(att.DoneAt),
		Completion: int64(att.Completion()),
		Blame:      att.Blame,
		Path:       make([]auditStep, 0, len(att.Path)),
	}
	for _, st := range att.Path {
		line.Path = append(line.Path, auditStep{
			Task:  int(st.Task),
			Start: int64(st.Start),
			End:   int64(st.End),
			Blame: st.Blame,
		})
	}
	b, err := json.Marshal(line)
	if err != nil {
		return // cannot happen: fixed struct layout
	}
	a.w.Write(b)
	a.w.WriteByte('\n')
}

// Flush drains the buffer to the underlying writer.
func (a *AuditWriter) Flush() error { return a.w.Flush() }
