// Package prof is the scheduler's phase-level profiler: a low-overhead,
// allocation-free timer that attributes a simulation run's wall time to
// the named phases of the scheduling-period and preemption-epoch hot
// paths (plan build, ILP solve, degradation-ladder rungs, memo rebuild,
// verdict scan, event-queue pump, …).
//
// The design goals, in priority order:
//
//   - Exclusive tiling. Phases form a stack (Enter/Exit): time is always
//     charged to exactly one phase — the innermost open one — so the
//     per-phase totals of a run sum to the instrumented wall time by
//     construction. That is what lets a bench report claim "this cell
//     spent 41% of its time in ilp-solve" and lets a regression harness
//     diff phase totals without double counting.
//   - Zero steady-state allocation. The stack is a fixed array, each
//     phase accumulates into fixed-size atomic cells (count, total, max,
//     and a log2-bucketed histogram), and Enter/Exit never allocate, so
//     timing can stay on for the preemption epoch path that was
//     deliberately driven to 0 allocs/op.
//   - Scrape safety. Recording uses atomics, so a telemetry server can
//     Snapshot a Timer from another goroutine mid-run without locks,
//     races, or torn reads of any single field.
//   - Near-no-op when off. Every method is nil-receiver safe; an
//     uninstrumented run passes a nil *Timer and pays one predictable
//     branch per call site.
//
// The clock is injectable (NewWithClock) so tests drive phase durations
// deterministically; the default clock is Go's monotonic time.Since.
package prof

import "fmt"

// Phase names one instrumented stretch of scheduler work. The taxonomy
// tiles a simulation run: engine-level phases (setup, event-pump,
// finalize) cover everything, and the hot-path phases carve their
// exclusive slices out of them.
type Phase uint8

// The phase taxonomy. PERF.md documents what each phase covers and which
// component records it.
const (
	// PhaseSetup: sim.Run construction — workload ingestion, per-task
	// state, job-graph validation — before the event loop starts.
	PhaseSetup Phase = iota
	// PhasePlanBuild: the scheduling period's input scan (arrived-pending
	// collection and backlog bookkeeping) before the scheduler runs.
	PhasePlanBuild
	// PhaseSchedule: the offline scheduler call (Scheduler.Schedule)
	// minus the DSP rungs below — for baselines this is their whole
	// placement cost; for DSP it is the ladder-walking residue.
	PhaseSchedule
	// PhaseILPSolve: the exact ILP rung — model build, warm-start seeding
	// and the branch-and-bound solve.
	PhaseILPSolve
	// PhaseSchedList: the dependency-aware list rung (both the Auto
	// choice and the degradation fallback).
	PhaseSchedList
	// PhaseSchedFIFO: the bottom-rung FIFO placement under extreme
	// overload.
	PhaseSchedFIFO
	// PhaseAssignApply: applying the period's assignments — queue
	// insertion and the slot refill that follows.
	PhaseAssignApply
	// PhaseEpochPolicy: the online preemption policy call
	// (Preemptor.Epoch) minus the DSP sub-phases below.
	PhaseEpochPolicy
	// PhaseMemoRebuild: preempt.Memo structural rebuilds — reverse-
	// topological order and live-edge recompaction.
	PhaseMemoRebuild
	// PhaseMemoEval: preempt.Memo's per-epoch numeric priority pass.
	PhaseMemoEval
	// PhaseVerdictScan: Algorithm 1's per-node preemption scan — urgency
	// checks, C1/C2, and the PP filter producing verdicts.
	PhaseVerdictScan
	// PhaseActionApply: applying the epoch's preemptions — suspends,
	// starter launches and the slot refill that follows.
	PhaseActionApply
	// PhaseTaskComplete: task-completion handling — slot release,
	// job accounting and the dependent-wakeup cascade.
	PhaseTaskComplete
	// PhaseEventPump: the discrete-event loop's residue — heap pops,
	// event dispatch, and every handler not named above (arrivals,
	// faults, retries, speculation).
	PhaseEventPump
	// PhaseAdmission: the job-arrival admission decision (backlog bound
	// and deadline-infeasibility checks).
	PhaseAdmission
	// PhaseAudit: the runtime invariant auditor's scheduling-boundary
	// re-derivation of engine invariants.
	PhaseAudit
	// PhaseSpans: execution-span and attribution bookkeeping delivered
	// through the observer.
	PhaseSpans
	// PhaseFinalize: end-of-run accounting checks and derived metrics.
	PhaseFinalize
	// PhaseSnapshot: the durability hook at the end of each scheduling
	// period — crash-recovery state capture, snapshot encoding and write,
	// and write-ahead-log rotation/fsync (see internal/recover).
	PhaseSnapshot
	// PhaseCellOther: a sweep cell's residue outside sim.Run — workload
	// generation, scheduler construction, result marshalling. The sweep
	// runner opens this as the root phase so per-cell phase totals tile
	// the cell's full wall time.
	PhaseCellOther
	// PhaseServePeriod: the serving daemon's wall-clock duration of one
	// scheduling-period step (drain ingest, plan, schedule, apply, audit,
	// snapshot). Unlike every phase above it is recorded as a direct
	// latency sample (Timer.Observe), not via the exclusive Enter/Exit
	// stack, so it overlaps — rather than tiles with — the engine phases
	// it contains. PERF.md documents the distinction.
	PhaseServePeriod

	// NumPhases is the number of phases; valid phases are < NumPhases.
	NumPhases
)

// phaseNames indexes Phase → stable string identity. These names are
// schema: they appear in dsp-bench-sweep/v2 reports, Prometheus labels
// and compare-tool output, so renaming one is a format change.
var phaseNames = [NumPhases]string{
	PhaseSetup:        "setup",
	PhasePlanBuild:    "plan-build",
	PhaseSchedule:     "schedule",
	PhaseILPSolve:     "ilp-solve",
	PhaseSchedList:    "sched-list",
	PhaseSchedFIFO:    "sched-fifo",
	PhaseAssignApply:  "assign-apply",
	PhaseEpochPolicy:  "epoch-policy",
	PhaseMemoRebuild:  "memo-rebuild",
	PhaseMemoEval:     "memo-eval",
	PhaseVerdictScan:  "verdict-scan",
	PhaseActionApply:  "action-apply",
	PhaseTaskComplete: "task-complete",
	PhaseEventPump:    "event-pump",
	PhaseAdmission:    "admission",
	PhaseAudit:        "audit",
	PhaseSpans:        "spans",
	PhaseFinalize:     "finalize",
	PhaseSnapshot:     "snapshot",
	PhaseCellOther:    "cell-other",
	PhaseServePeriod:  "serve-period",
}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Instrumentable is implemented by components (schedulers, preemptors)
// that can attribute their internal work to phases. The engine attaches
// its configured Timer to any Instrumentable scheduler or preemptor at
// run start, so call sites only ever wire the one Config field.
type Instrumentable interface {
	SetProfiler(*Timer)
}
