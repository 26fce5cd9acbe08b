package sim

import (
	"fmt"

	"dsp/internal/cluster"
	"dsp/internal/prof"
	"dsp/internal/units"
)

// Execution spans: the engine tiles every task's lifetime — from its
// job's arrival to its completion — into contiguous, non-overlapping
// spans, each naming what the task was doing (waiting to be placed,
// queued on a node, paying a resume penalty, executing, …) and, where
// the time was forced by an interruption, which kind (preemption, task
// fault, node crash). Spans are emitted through the Observer as they
// close, so an attribution layer can reconstruct, for any completed
// job, exactly where its completion time went; the latency-attribution
// engine in internal/attrib consumes them to build per-job blame
// vectors that sum to the measured completion time.
//
// Invariant: for every task of a completed job, the emitted spans are
// gapless and non-overlapping over [job.Arrival, task.DoneAt]. Wait
// spans (pending/queued/suspend-wait/backoff) close when the task
// changes state; burst spans (overhead/service/lost) close lazily when
// the burst ends, because only then is the service/lost split known —
// a preempted or faulted burst rolls back to the last checkpoint, and
// the uncheckpointed remainder of the burst is "lost".

// SpanKind says what the task was doing for the span's duration.
type SpanKind uint8

// Span kinds.
const (
	// SpanPending: unassigned, waiting for the offline scheduler to
	// place it (includes pre-eligibility time while cross-job
	// prerequisites run; the attribution layer splits that off using
	// JobState.EligibleAt).
	SpanPending SpanKind = iota
	// SpanQueued: in a node's waiting queue, not yet started.
	SpanQueued
	// SpanSuspendWait: preempted and re-waiting in the node queue.
	SpanSuspendWait
	// SpanBackoff: a failed attempt waiting out its retry delay.
	SpanBackoff
	// SpanBlocked: blind-started, occupying a slot with unfinished
	// precedents (dependency-blind schedulers only).
	SpanBlocked
	// SpanOverhead: occupying a slot but paying a startup cost (resume
	// penalty after preemption/fault, remote-input penalty).
	SpanOverhead
	// SpanService: executing, and the progress survived (it was not
	// rolled back by the burst's end).
	SpanService
	// SpanLost: executing, but the burst ended in an interruption and
	// this trailing stretch rolled back to the last checkpoint. Cause
	// says what killed the burst.
	SpanLost
)

func (k SpanKind) String() string {
	switch k {
	case SpanPending:
		return "pending"
	case SpanQueued:
		return "queued"
	case SpanSuspendWait:
		return "suspend-wait"
	case SpanBackoff:
		return "backoff"
	case SpanBlocked:
		return "blocked"
	case SpanOverhead:
		return "overhead"
	case SpanService:
		return "service"
	case SpanLost:
		return "lost"
	default:
		return fmt.Sprintf("span(%d)", uint8(k))
	}
}

// SpanCause says which interruption forced the span, for kinds where
// that matters (SpanLost; CauseNone elsewhere).
type SpanCause uint8

// Span causes.
const (
	CauseNone SpanCause = iota
	// CausePreemption: the online policy suspended the burst.
	CausePreemption
	// CauseTaskFault: an injected transient task fault killed the burst.
	CauseTaskFault
	// CauseCrash: the node crashed under the burst.
	CauseCrash
)

func (c SpanCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CausePreemption:
		return "preemption"
	case CauseTaskFault:
		return "task-fault"
	case CauseCrash:
		return "crash"
	default:
		return fmt.Sprintf("cause(%d)", uint8(c))
	}
}

// TaskSpan is one closed span of a task's timeline, delivered via
// a TaskSpanClosed event. Node is where the span was spent (-1 for
// off-node waits: pending and backoff).
type TaskSpan struct {
	Task  *TaskState
	Kind  SpanKind
	Cause SpanCause
	Node  cluster.NodeID
	Start units.Time
	End   units.Time
}

// emitSpan delivers one closed span to the observer. Zero-length spans
// are dropped: they carry no time and would only bloat the stream.
func (e *Engine) emitSpan(t *TaskState, kind SpanKind, cause SpanCause, node cluster.NodeID, start, end units.Time) {
	o := e.cfg.Observer
	if o == nil || end <= start {
		return
	}
	e.cfg.Prof.Enter(prof.PhaseSpans)
	o.Observe(Event{Kind: TaskSpanClosed, At: end, Span: TaskSpan{
		Task: t, Kind: kind, Cause: cause, Node: node, Start: start, End: end,
	}})
	e.cfg.Prof.Exit()
}

// closeWaitSpan closes the wait span the task has been in since
// spanStart, keyed off its current (not-yet-updated) phase, and opens
// the next span at now. Callers must invoke it before mutating Phase.
func (e *Engine) closeWaitSpan(t *TaskState, now units.Time) {
	switch t.Phase {
	case Pending:
		e.emitSpan(t, SpanPending, CauseNone, -1, t.spanStart, now)
	case Queued:
		e.emitSpan(t, SpanQueued, CauseNone, t.Node, t.spanStart, now)
	case Suspended:
		e.emitSpan(t, SpanSuspendWait, CausePreemption, t.Node, t.spanStart, now)
	case Backoff:
		e.emitSpan(t, SpanBackoff, CauseNone, -1, t.spanStart, now)
	}
	t.spanStart = now
}

// closeBurstSpans closes the spans of an execution burst ending at end:
// the startup penalty [spanStart, effStart) as overhead, then the
// executed stretch [effStart, end) split into surviving service and the
// rolled-back tail of lost work. cause is what ended the burst
// (CauseNone for a completion), lost how much of the executed stretch
// rolled back (worked − retained under the checkpoint policy). A burst
// interrupted mid-penalty (end ≤ effStart) is all overhead.
func (e *Engine) closeBurstSpans(t *TaskState, node cluster.NodeID, end units.Time, cause SpanCause, lost units.Time) {
	ohEnd := t.effStart
	if end < ohEnd {
		ohEnd = end
	}
	e.emitSpan(t, SpanOverhead, CauseNone, node, t.spanStart, ohEnd)
	if end > t.effStart {
		worked := end - t.effStart
		if lost < 0 {
			lost = 0
		}
		if lost > worked {
			lost = worked
		}
		e.emitSpan(t, SpanService, CauseNone, node, t.effStart, end-lost)
		e.emitSpan(t, SpanLost, cause, node, end-lost, end)
	}
	t.spanStart = end
}
