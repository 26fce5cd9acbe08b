package sim

import (
	"fmt"
	"sort"
	"sync/atomic"

	"dsp/internal/cluster"
	"dsp/internal/dag"
	"dsp/internal/eventq"
	"dsp/internal/prof"
	"dsp/internal/trace"
	"dsp/internal/units"
)

// Config configures a simulation run.
type Config struct {
	Cluster   *cluster.Cluster
	Scheduler Scheduler
	// Preemptor may be nil (no online phase), as in the Figure 5
	// scheduling-method comparison.
	Preemptor Preemptor
	// Checkpoint is the preemption cost model.
	Checkpoint cluster.CheckpointPolicy
	// Period is the offline scheduling interval (the paper runs
	// scheduling every 5 minutes).
	Period units.Time
	// Epoch is the online preemption interval.
	Epoch units.Time
	// BlindTimeout is how long a dependency-blind scheduler's task may
	// occupy a slot waiting for unfinished precedents before the node
	// gives up and requeues it (models launch-retry behaviour of real
	// runtimes; only relevant when the scheduler is DependencyBlind).
	BlindTimeout units.Time
	// MaxEvents caps the event count as a runaway guard (0 = default).
	MaxEvents int
	// Faults optionally injects node failures and stragglers.
	Faults *FaultPlan
	// RemoteInputPenalty is the extra startup time charged the first
	// time a task runs on a node other than its preferred (data-holding)
	// node. Zero disables data-locality effects.
	RemoteInputPenalty units.Time
	// RetryBudget is how many failed attempts (transient task faults,
	// crash evictions of running tasks) a task absorbs before failing
	// terminally and taking its job down. 0 = DefaultRetryBudget;
	// negative = unlimited.
	RetryBudget int
	// RetryBackoff is the base delay before a failed attempt is
	// re-admitted to Pending, doubling per attempt. 0 = immediate
	// re-admission (the pre-resilience behaviour).
	RetryBackoff units.Time
	// BlacklistThreshold blacklists a node once its decayed failure
	// penalty (1 per crash or transient fault, halving every
	// HealthHalfLife) reaches this value. 0 disables blacklisting.
	BlacklistThreshold float64
	// HealthHalfLife is the node-penalty decay half-life
	// (0 = DefaultHealthHalfLife).
	HealthHalfLife units.Time
	// Speculation, when non-nil, launches backup copies of straggling
	// tasks on idle slots (see Speculation).
	Speculation *Speculation
	// Admission, when non-nil, enables admission control: jobs can be
	// shed at arrival — bounded pending backlog, provably
	// deadline-infeasible work rejected — instead of growing the queues
	// without bound under overload (see Admission).
	Admission *Admission
	// AuditInvariants enables the runtime invariant auditor: the engine's
	// core state invariants (slot conservation, phase/membership
	// consistency, dependency order, queue ordering) are re-checked at
	// every scheduling boundary, and a violation quarantines the
	// offending node or task instead of letting the run silently compute
	// garbage (see auditor.go).
	AuditInvariants bool
	// Observer, when non-nil, receives lifecycle events.
	Observer Observer
	// Prof, when non-nil, receives the run's phase-level timing: the
	// engine charges setup, the period and epoch paths, task completion,
	// admission, audit and span bookkeeping to named phases (see
	// internal/prof), and attaches the timer to any scheduler or
	// preemptor implementing prof.Instrumentable so they can attribute
	// their internal work too. nil disables profiling at the cost of a
	// nil check per phase boundary.
	Prof *prof.Timer
	// Durability, when non-nil, receives a callback at the end of every
	// scheduling period so it can capture crash-recovery snapshots and
	// rotate its write-ahead log (see internal/recover). Its cost is
	// charged to the prof "snapshot" phase.
	Durability DurabilitySink
	// Interrupt, when non-nil, is polled between events: setting it makes
	// the run stop at the next inter-event boundary, take a final
	// durability snapshot (if a sink is configured) and return
	// ErrInterrupted. Signal handlers use this for graceful shutdown.
	Interrupt *atomic.Bool
	// Streaming switches the engine from batch simulation to online
	// serving: the initial workload may be empty, jobs are submitted over
	// time through Submit and drained into the world at period
	// boundaries, the period/epoch ticks keep re-arming while ingestion
	// is open, and settled jobs are retired (DAG and task state released)
	// to bound memory. Drive a streaming engine with StepUntil and finish
	// it with CloseIngest + FinishStreaming; see ingest.go. In streaming
	// mode per-job records (Result.Jobs) are not accumulated, so the
	// derived AvgJobQueueing/AvgJobWaiting metrics are unavailable.
	Streaming bool
}

func (c *Config) fillDefaults() {
	if c.Period <= 0 {
		c.Period = 5 * units.Minute
	}
	if c.Epoch <= 0 {
		c.Epoch = 10 * units.Second
	}
	if c.BlindTimeout <= 0 {
		c.BlindTimeout = units.Minute
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 200_000_000
	}
	if c.Speculation != nil {
		c.Speculation.fillDefaults(c.Epoch)
	}
}

// DependencyBlind is an optional interface for schedulers that ignore
// task dependencies entirely (TetrisW/oDep in the paper). Nodes serving
// such a scheduler dispatch their queues in planned order without
// checking precedents: a task whose inputs are not ready occupies its
// slot uselessly until the inputs appear or the BlindTimeout expires —
// the resource waste the paper attributes to dependency-oblivious
// scheduling.
type DependencyBlind interface {
	DependencyBlind() bool
}

// nodeState is the engine's per-node bookkeeping.
type nodeState struct {
	node    *cluster.Node
	running []*TaskState
	// queue holds Queued and Suspended tasks in ascending
	// (PlannedStart, job, task) order.
	queue []*TaskState
	// spec holds the speculative backup copies occupying slots here.
	spec []*backupRun
	// down marks a crashed node; speedFactor models stragglers.
	down        bool
	speedFactor float64
	// penalty is the decayed failure-health score (decayedPenalty gives
	// its value as of any later instant); blacklisted latches once it
	// crosses Config.BlacklistThreshold, until the penalty decays back.
	penalty     float64
	penaltyAt   units.Time
	blacklisted bool
}

// Engine runs one simulation.
type Engine struct {
	cfg   Config
	q     *eventq.Queue
	nodes []*nodeState
	jobs  []*JobState
	view  *View
	blind bool

	jobsRemaining int
	activeBackups int
	metrics       Result
	lastDone      units.Time
	firstArrival  units.Time
	// pendingBuf is arrivedPending's reusable result buffer: the scan runs
	// every period over every job, and reallocating the slice each time
	// dominated the period tick's allocation profile.
	pendingBuf []*JobState
	// epochIndex numbers online preemption epochs from 1, for the
	// EpochStarted/EpochEnded observer events.
	epochIndex int
	// periodIndex numbers offline scheduling periods from 1; the
	// durability sink keys its snapshot cadence on it.
	periodIndex int
	// durErr latches the first durability-sink failure; Execute surfaces
	// it after the event pump stops.
	durErr error
	// worldSum fingerprints the built world (see worldFingerprint);
	// snapshots embed it so restore rejects mismatched worlds.
	worldSum uint64
	// fired counts events fired by Execute (see EventsFired).
	fired int
	// byID indexes jobs by DAG identity (built once in buildWorld,
	// extended as streamed jobs are drained).
	byID map[dag.JobID]*JobState
	// Streaming-ingestion state (see ingest.go): the undrained submission
	// queue, its task count, the last stamp issued (stamps are
	// monotonic), how many entries have been drained into the world (the
	// resume splice point), and whether ingestion has been closed.
	ingest          []ingestEntry
	ingestTasks     int
	lastIngestStamp units.Time
	ingestApplied   int
	ingestClosed    bool
}

// Run simulates the workload to completion and returns the collected
// metrics.
func Run(cfg Config, w *trace.Workload) (*Result, error) {
	e, err := Prepare(cfg, w)
	if err != nil {
		return nil, err
	}
	return e.Execute()
}

// Prepare validates the configuration, builds the simulation world and
// arms its initial events, returning an engine ready to Execute. Split
// from Run so callers needing the engine itself (durability snapshots,
// crash-recovery harnesses) can hold it across the run.
func Prepare(cfg Config, w *trace.Workload) (*Engine, error) {
	e, err := newEngine(&cfg, w)
	if err != nil {
		return nil, err
	}
	tm := cfg.Prof
	tm.Enter(prof.PhaseSetup)
	err = e.buildWorld(w)
	if err == nil {
		e.armInitialEvents()
	}
	tm.Exit()
	if err != nil {
		return nil, err
	}
	return e, nil
}

// newEngine runs the config checks shared by Prepare and PrepareResume
// and returns the empty engine shell with profilers attached.
func newEngine(cfg *Config, w *trace.Workload) (*Engine, error) {
	cfg.fillDefaults()
	if cfg.Cluster == nil || cfg.Cluster.Len() == 0 {
		return nil, fmt.Errorf("sim: config needs a non-empty cluster")
	}
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("sim: config needs a scheduler")
	}
	if len(w.Jobs) == 0 && !cfg.Streaming {
		return nil, fmt.Errorf("sim: empty workload")
	}
	if cfg.Checkpoint.Enabled && cfg.Checkpoint.Interval >= cfg.Epoch {
		// DefaultCheckpoint's doc comment warns that a checkpoint interval
		// at or above the preemption epoch retains no progress across a
		// preempt-resume cycle and can live-lock the pair; reject it here
		// instead of relying on callers to read the comment.
		return nil, fmt.Errorf("sim: checkpoint interval %v must be shorter than the epoch %v (a task preempted every epoch would never retain progress)",
			cfg.Checkpoint.Interval, cfg.Epoch)
	}
	e := &Engine{cfg: *cfg, q: eventq.New()}
	if cfg.Interrupt != nil {
		e.q.SetStop(cfg.Interrupt)
	}
	tm := cfg.Prof
	// Attach (or detach, when Prof is nil) the profiler on components
	// that can attribute their own work — unconditional, so a scheduler
	// reused across runs never keeps a stale timer.
	if in, ok := cfg.Scheduler.(prof.Instrumentable); ok {
		in.SetProfiler(tm)
	}
	if cfg.Preemptor != nil {
		if in, ok := cfg.Preemptor.(prof.Instrumentable); ok {
			in.SetProfiler(tm)
		}
	}
	return e, nil
}

// Execute drains the event queue and finalizes the metrics. It returns
// ErrInterrupted when stopped via Config.Interrupt (after handing the
// durability sink its final-snapshot callback).
func (e *Engine) Execute() (*Result, error) {
	cfg := e.cfg
	tm := cfg.Prof
	tm.Enter(prof.PhaseEventPump)
	fired, drained := e.q.Run(cfg.MaxEvents)
	tm.Exit()
	e.fired = fired
	if cfg.Interrupt != nil && cfg.Interrupt.Load() {
		if d := cfg.Durability; d != nil {
			if err := d.OnInterrupt(e, e.q.Now()); err != nil {
				return nil, fmt.Errorf("sim: interrupted; final snapshot failed: %w", err)
			}
		}
		return nil, ErrInterrupted
	}
	if e.durErr != nil {
		return nil, fmt.Errorf("sim: durability sink failed: %w", e.durErr)
	}
	if !drained {
		return nil, fmt.Errorf("sim: event cap %d exceeded at t=%v with %d jobs incomplete (policy live-lock?)",
			fired, e.q.Now(), e.jobsRemaining)
	}
	if e.jobsRemaining > 0 {
		return nil, fmt.Errorf("sim: %d jobs incomplete after event queue drained (scheduler %q never assigned their tasks?)",
			e.jobsRemaining, cfg.Scheduler.Name())
	}
	if e.metrics.JobsCompleted+e.metrics.JobsFailed+e.metrics.JobsShed != len(e.jobs) {
		return nil, fmt.Errorf("sim: job accounting broken: %d completed + %d failed + %d shed != %d jobs",
			e.metrics.JobsCompleted, e.metrics.JobsFailed, e.metrics.JobsShed, len(e.jobs))
	}
	tm.Enter(prof.PhaseFinalize)
	e.finalize()
	tm.Exit()
	return &e.metrics, nil
}

// EventsFired returns the number of events Execute fired. The crash
// harness uses it to pick kill points inside a recorded run.
func (e *Engine) EventsFired() int { return e.fired }

// Now returns the engine clock.
func (e *Engine) Now() units.Time { return e.q.Now() }

// buildWorld constructs the engine's static world from the workload —
// node and task state, per-task deadlines, cross-job dependency
// resolution — without arming any events, so a restore can overlay
// snapshot state onto the same structures. armInitialEvents completes a
// fresh setup.
func (e *Engine) buildWorld(w *trace.Workload) error {
	cfg := e.cfg
	e.view = &View{engine: e}
	if db, ok := cfg.Scheduler.(DependencyBlind); ok && db.DependencyBlind() {
		e.blind = true
	}
	for _, n := range cfg.Cluster.Nodes {
		e.nodes = append(e.nodes, &nodeState{node: n, speedFactor: 1})
	}
	if err := cfg.Faults.Validate(cfg.Cluster.Len()); err != nil {
		return err
	}
	meanSpeed := cfg.Cluster.MeanSpeed()

	e.firstArrival = units.Forever
	e.byID = make(map[dag.JobID]*JobState, len(w.Jobs))
	for jobIdx, tj := range w.Jobs {
		js := &JobState{
			Dag:       tj.DAG,
			Arrival:   tj.Arrival,
			DoneAt:    -1,
			remaining: tj.DAG.Len(),
			idx:       jobIdx,
			id:        tj.DAG.ID,
			fpLen:     tj.DAG.Len(),
			fpSize:    tj.DAG.TotalSize(),
		}
		if tj.DAG.Deadline > 0 {
			js.Deadline = tj.Arrival + units.FromSeconds(tj.DAG.Deadline)
		}
		// Per-task deadlines via the per-level backward rule, at nominal
		// (mean) cluster speed.
		exec := func(id dag.TaskID) float64 { return tj.DAG.Task(id).Size / meanSpeed }
		if _, cp, err := tj.DAG.CriticalPath(exec); err == nil {
			js.ideal = units.FromSeconds(cp)
		}
		var taskDeadlines []float64
		if tj.DAG.Deadline > 0 {
			var err error
			taskDeadlines, err = tj.DAG.TaskDeadlines(tj.DAG.Deadline, exec)
			if err != nil {
				return fmt.Errorf("sim: job %d: %w", tj.DAG.ID, err)
			}
		}
		for _, task := range tj.DAG.Tasks {
			ts := &TaskState{
				Task:       task,
				Job:        js,
				Phase:      Pending,
				Node:       -1,
				FirstStart: -1,
				DoneAt:     -1,
				Deadline:   units.Forever,
				spanStart:  tj.Arrival,
			}
			if taskDeadlines != nil {
				ts.Deadline = tj.Arrival + units.FromSeconds(taskDeadlines[task.ID])
			}
			js.Tasks = append(js.Tasks, ts)
		}
		e.jobs = append(e.jobs, js)
		e.jobsRemaining++
		if tj.Arrival < e.firstArrival {
			e.firstArrival = tj.Arrival
		}
	}

	// Resolve cross-job dependencies and reject cycles (a cyclic job
	// graph can never finish).
	for _, js := range e.jobs {
		e.byID[js.id] = js
	}
	for i, tj := range w.Jobs {
		for _, dep := range tj.WaitsFor {
			pre, ok := e.byID[dep]
			if !ok {
				return fmt.Errorf("sim: job %d waits for unknown job %d", tj.DAG.ID, dep)
			}
			if pre == e.jobs[i] {
				return fmt.Errorf("sim: job %d waits for itself", tj.DAG.ID)
			}
			e.jobs[i].waitsFor = append(e.jobs[i].waitsFor, pre)
		}
	}
	if err := validateJobGraph(e.jobs); err != nil {
		return err
	}
	e.worldSum = e.worldFingerprint()
	return nil
}

// armInitialEvents schedules the events of a fresh (non-resumed) run:
// job arrivals, injected faults, and the first period/epoch/speculation
// ticks.
func (e *Engine) armInitialEvents() {
	cfg := e.cfg
	e.installFaults(cfg.Faults)
	for _, js := range e.jobs {
		e.armArrival(js, js.Arrival)
	}

	// First scheduling period fires at the first arrival. A streaming
	// engine starts ticking at t=0: jobs may arrive at any moment, so
	// the cadence cannot key off a workload that may be empty.
	start := e.firstArrival
	if cfg.Streaming {
		start = 0
	}
	e.q.AtTag(start, eventq.Tag{Kind: evPeriodTick}, eventq.Func(e.periodTick))
	if cfg.Preemptor != nil {
		e.q.AtTag(start+cfg.Epoch, eventq.Tag{Kind: evEpochTick}, eventq.Func(e.epochTick))
	}
	if cfg.Speculation != nil {
		e.q.AtTag(start+cfg.Speculation.Interval, eventq.Tag{Kind: evSpecTick}, eventq.Func(e.specTick))
	}
}

// armArrival schedules a job's arrival event: its pending tasks become
// visible to the next scheduling period via arrivedPending — unless
// admission control sheds the job at the door.
func (e *Engine) armArrival(js *JobState, at units.Time) {
	e.q.AtTag(at, eventq.Tag{Kind: evArrival, A: int32(js.idx)}, eventq.Func(func(at units.Time) {
		e.cfg.Prof.Enter(prof.PhaseAdmission)
		e.admitJob(js, at)
		e.cfg.Prof.Exit()
	}))
}

// arrivedPending returns jobs that have arrived by now, have every
// cross-job prerequisite completed, and still have unassigned tasks. The
// returned slice aliases a per-engine buffer that the next call reuses;
// it is only handed to Scheduler.Schedule, which must not retain it.
func (e *Engine) arrivedPending(now units.Time) []*JobState {
	out := e.pendingBuf[:0]
	for _, j := range e.jobs {
		if j.Arrival <= now && !j.failed && !j.shed && j.assigned < len(j.Tasks) && j.Eligible() {
			out = append(out, j)
		}
	}
	e.pendingBuf = out
	return out
}

// validateJobGraph rejects structurally broken per-job DAGs (in-job
// cycles, dangling edges, duplicate or misplaced task IDs — see
// dag.CheckStructure) and cyclic cross-job dependencies. Errors name the
// offending job (and task, for per-job defects).
func validateJobGraph(jobs []*JobState) error {
	for _, j := range jobs {
		if err := j.Dag.CheckStructure(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	const (
		white = iota
		grey
		black
	)
	color := make(map[*JobState]int, len(jobs))
	var visit func(j *JobState) error
	visit = func(j *JobState) error {
		switch color[j] {
		case grey:
			return fmt.Errorf("sim: cross-job dependency cycle involving job %d", j.Dag.ID)
		case black:
			return nil
		}
		color[j] = grey
		for _, p := range j.waitsFor {
			if err := visit(p); err != nil {
				return err
			}
		}
		color[j] = black
		return nil
	}
	for _, j := range jobs {
		if err := visit(j); err != nil {
			return err
		}
	}
	return nil
}

// periodTick runs the offline scheduler and re-arms itself while work
// remains. When a durability sink is configured it runs last, at the
// fully settled period boundary — the canonical snapshot point.
func (e *Engine) periodTick(now units.Time) {
	e.periodIndex++
	tm := e.cfg.Prof
	if e.cfg.Streaming {
		// Pull submitted jobs whose stamps have been reached into the
		// world (admission decides at the boundary, but JobShed events
		// carry the arrival stamp), then release the state of jobs that
		// settled since the previous boundary.
		e.drainIngest(now)
		e.retireSettled()
	}
	tm.Enter(prof.PhasePlanBuild)
	e.notePendingPeak(now)
	pending := e.arrivedPending(now)
	tm.Exit()
	if len(pending) > 0 {
		tm.Enter(prof.PhaseSchedule)
		assignments := e.cfg.Scheduler.Schedule(now, pending, e.view)
		tm.Exit()
		tm.Enter(prof.PhaseAssignApply)
		for _, a := range assignments {
			e.applyAssignment(a, now)
		}
		for k := range e.nodes {
			e.tryFill(cluster.NodeID(k), now)
		}
		tm.Exit()
	}
	if e.cfg.AuditInvariants && e.cfg.Preemptor == nil {
		// No epochs run in this configuration; audit at the period
		// boundary instead.
		tm.Enter(prof.PhaseAudit)
		e.auditInvariants(now)
		tm.Exit()
	}
	if e.jobsRemaining > 0 || e.streamingLive() {
		e.q.AfterTag(e.cfg.Period, eventq.Tag{Kind: evPeriodTick}, eventq.Func(e.periodTick))
	}
	if d := e.cfg.Durability; d != nil {
		tm.Enter(prof.PhaseSnapshot)
		if o := e.cfg.Observer; d.SnapshotDue(e.periodIndex) && o != nil {
			// The audit line for the snapshot event must precede the offset
			// the snapshot records, so a resumed run's truncated audit
			// already contains it — emit before the sink captures state.
			o.Observe(Event{Kind: SnapshotTaken, At: now, N: e.periodIndex})
		}
		if err := d.OnPeriod(e, e.periodIndex, now); err != nil && e.durErr == nil {
			e.durErr = err
		}
		tm.Exit()
	}
}

// applyAssignment moves a pending task into its node's waiting queue.
func (e *Engine) applyAssignment(a Assignment, now units.Time) {
	t := a.Task
	if t.Phase != Pending {
		return // schedulers must only assign pending tasks; ignore others
	}
	if int(a.Node) < 0 || int(a.Node) >= len(e.nodes) {
		return
	}
	if e.nodes[a.Node].down {
		return // stays pending; the next period re-places it
	}
	e.closeWaitSpan(t, now)
	t.Phase = Queued
	t.Node = a.Node
	t.PlannedStart = units.Max(a.Start, now)
	t.QueuedAt = now
	t.Job.assigned++
	e.enqueue(a.Node, t)
}

// enqueue inserts t into the node queue keeping ascending
// (PlannedStart, JobID, TaskID) order.
func (e *Engine) enqueue(k cluster.NodeID, t *TaskState) {
	ns := e.nodes[k]
	i := sort.Search(len(ns.queue), func(i int) bool {
		q := ns.queue[i]
		if q.PlannedStart != t.PlannedStart {
			return q.PlannedStart > t.PlannedStart
		}
		if q.Task.Job != t.Task.Job {
			return q.Task.Job > t.Task.Job
		}
		return q.Task.ID > t.Task.ID
	})
	ns.queue = append(ns.queue, nil)
	copy(ns.queue[i+1:], ns.queue[i:])
	ns.queue[i] = t
}

// dequeue removes t from its node's queue.
func (e *Engine) dequeue(k cluster.NodeID, t *TaskState) {
	ns := e.nodes[k]
	for i, q := range ns.queue {
		if q == t {
			ns.queue = append(ns.queue[:i], ns.queue[i+1:]...)
			return
		}
	}
}

// tryFill starts queued tasks while the node has free slots. With a
// dependency-aware scheduler the engine picks the first *runnable* task
// in planned order; with a DependencyBlind scheduler it dispatches
// strictly in planned order — blocked tasks then occupy slots uselessly.
func (e *Engine) tryFill(k cluster.NodeID, now units.Time) {
	ns := e.nodes[k]
	if ns.down {
		return
	}
	for len(ns.running)+len(ns.spec) < ns.node.Slots {
		var pick *TaskState
		if e.blind {
			if len(ns.queue) > 0 {
				pick = ns.queue[0]
			}
		} else {
			for _, t := range ns.queue {
				if t.DepsMet() {
					pick = t
					break
				}
			}
		}
		if pick == nil {
			return
		}
		e.start(k, pick, now)
	}
}

// start moves a waiting task into a slot. If its precedents are
// unfinished (possible only under a DependencyBlind scheduler) the task
// blocks in the slot: no progress, a timeout to requeue it, and real work
// begins only when the last precedent completes.
func (e *Engine) start(k cluster.NodeID, t *TaskState, now units.Time) {
	e.dequeue(k, t)
	ns := e.nodes[k]
	e.closeWaitSpan(t, now)
	t.Phase = Running
	ns.running = append(ns.running, t)
	if now > t.QueuedAt {
		t.totalWait += now - t.QueuedAt
	}
	if t.FirstStart < 0 {
		t.FirstStart = now
		// Waiting metric: from readiness (deps met, queued) to first start.
		ready := t.ReadyAt()
		if now > ready {
			e.metrics.totalTaskWait += now - ready
		}
		e.metrics.taskWaitSamples++
	}
	if o := e.cfg.Observer; o != nil {
		o.Observe(Event{Kind: TaskStarted, At: now, Task: t, Node: k})
	}
	if !t.DepsMet() {
		t.blocked = true
		t.effStart = now // occupancy start, for blocked-time accounting
		e.metrics.BlindStarts++
		t.blockEv = e.q.AfterTag(e.cfg.BlindTimeout, taskTag(evBlockTimeout, t), eventq.Func(func(at units.Time) {
			e.kickBlocked(k, t, at)
		}))
		t.hasBlockEv = true
		return
	}
	e.beginWork(k, t, now)
}

// beginWork schedules the completion of a task occupying a slot whose
// precedents have all finished.
func (e *Engine) beginWork(k cluster.NodeID, t *TaskState, now units.Time) {
	speed := e.speedOf(k)
	penalty := t.resumePenalty
	t.resumePenalty = 0
	if t.blocked {
		// A blind start spent [spanStart, now) holding the slot with
		// unfinished precedents; real work begins only now.
		e.emitSpan(t, SpanBlocked, CauseNone, k, t.spanStart, now)
	}
	t.blocked = false
	t.spanStart = now
	if !t.everRan && t.Task.Preferred >= 0 {
		if int(k) == t.Task.Preferred {
			e.metrics.LocalityHits++
		} else {
			e.metrics.LocalityMisses++
			penalty += e.cfg.RemoteInputPenalty
		}
	}
	t.everRan = true
	t.effStart = addTime(now, penalty)
	workTime := t.RemainingTime(speed)
	e.armAttemptFault(t, t.effStart, workTime)
	e.scheduleAttempt(k, t, addTime(t.effStart, workTime), now)
}

// kickBlocked requeues a blind-started task that spent BlindTimeout in a
// slot without its inputs appearing; the wasted occupancy is recorded.
func (e *Engine) kickBlocked(k cluster.NodeID, t *TaskState, now units.Time) {
	t.hasBlockEv = false
	if !t.blocked || t.Phase != Running {
		return
	}
	ns := e.nodes[k]
	for i, r := range ns.running {
		if r == t {
			ns.running = append(ns.running[:i], ns.running[i+1:]...)
			break
		}
	}
	e.metrics.BlockedSlotTime += e.cfg.BlindTimeout
	e.emitSpan(t, SpanBlocked, CauseNone, k, t.spanStart, now)
	t.spanStart = now
	t.blocked = false
	t.Phase = Queued
	t.QueuedAt = now
	// Demote behind currently planned work so the slot tries something
	// else first.
	t.PlannedStart = now + e.cfg.Period
	e.enqueue(k, t)
	if o := e.cfg.Observer; o != nil {
		o.Observe(Event{Kind: TaskRequeued, At: now, Task: t, Node: k, Requeue: RequeueBlindTimeout})
	}
	e.tryFill(k, now)
}

// suspend preempts a running task: progress rolls back to the last
// checkpoint, the resume penalty is armed, and the task rejoins the
// queue.
func (e *Engine) suspend(k cluster.NodeID, t *TaskState, now units.Time) {
	ns := e.nodes[k]
	for i, r := range ns.running {
		if r == t {
			ns.running = append(ns.running[:i], ns.running[i+1:]...)
			break
		}
	}
	if t.hasDoneEv {
		e.q.Cancel(t.doneEv)
		t.hasDoneEv = false
	}
	if t.hasBlockEv {
		e.q.Cancel(t.blockEv)
		t.hasBlockEv = false
	}
	if t.blocked {
		// A blocked blind-start never began work: nothing to roll back
		// and no state to restore on resume.
		e.metrics.BlockedSlotTime += now - t.effStart
		e.emitSpan(t, SpanBlocked, CauseNone, k, t.spanStart, now)
		t.spanStart = now
		t.blocked = false
	} else {
		speed := e.speedOf(k)
		var lost units.Time
		if now > t.effStart {
			worked := now - t.effStart
			retained := e.cfg.Checkpoint.RetainedProgress(worked)
			t.doneMI += retained.Seconds() * speed
			if t.doneMI > t.Task.Size {
				t.doneMI = t.Task.Size
			}
			if worked > retained {
				lost = worked - retained
			}
		}
		e.closeBurstSpans(t, k, now, CausePreemption, lost)
		t.resumePenalty = e.cfg.Checkpoint.ResumePenalty()
	}
	t.attemptFailAt = 0 // the burst died with the slot; resume re-rolls
	t.Phase = Suspended
	t.Preemptions++
	t.QueuedAt = now
	e.metrics.Preemptions++
	e.enqueue(k, t)
}

// complete finishes the primary copy of a task: it leaves its slot, any
// speculative backup is cancelled (first copy wins), and the task
// finishes.
func (e *Engine) complete(k cluster.NodeID, t *TaskState, now units.Time) {
	tm := e.cfg.Prof
	tm.Enter(prof.PhaseTaskComplete)
	defer tm.Exit()
	ns := e.nodes[k]
	for i, r := range ns.running {
		if r == t {
			ns.running = append(ns.running[:i], ns.running[i+1:]...)
			break
		}
	}
	t.hasDoneEv = false
	if t.backup != nil {
		e.cancelBackup(t.backup, now)
	}
	e.closeBurstSpans(t, k, now, CauseNone, 0)
	e.finish(k, t, now)
}

// finish records a task's completion — shared by the primary path
// (complete) and a winning speculative copy (backupComplete). The caller
// has already detached every live copy of the task.
func (e *Engine) finish(k cluster.NodeID, t *TaskState, now units.Time) {
	t.Phase = Done
	t.DoneAt = now
	t.doneMI = t.Task.Size
	e.metrics.TasksCompleted++
	if o := e.cfg.Observer; o != nil {
		o.Observe(Event{Kind: TaskCompleted, At: now, Task: t, Node: k})
	}
	if t.Deadline != units.Forever && now > t.Deadline {
		e.metrics.TaskDeadlineMisses++
	}
	j := t.Job
	j.remaining--
	if j.remaining == 0 {
		j.DoneAt = now
		e.jobsRemaining--
		e.metrics.JobsCompleted++
		if j.MetDeadline() {
			e.metrics.JobsMetDeadline++
		}
		// Job waiting time: submission to first task start.
		first := units.Forever
		for _, ts := range j.Tasks {
			if ts.FirstStart >= 0 && ts.FirstStart < first {
				first = ts.FirstStart
			}
		}
		if first != units.Forever && first > j.Arrival {
			e.metrics.totalJobWait += first - j.Arrival
		}
		e.metrics.jobWaitSamples++

		// Per-job records are a batch-analysis artifact; a streaming
		// engine runs indefinitely and must not accumulate one entry
		// per job forever.
		if !e.cfg.Streaming {
			rec := JobRecord{
				Job:         j.Dag.ID,
				Arrival:     j.Arrival,
				DoneAt:      now,
				FirstStart:  first,
				Ideal:       j.ideal,
				MetDeadline: j.MetDeadline(),
			}
			if j.ideal > 0 {
				rec.Slowdown = (now - j.Arrival).Seconds() / j.ideal.Seconds()
			}
			var queueWait units.Time
			for _, ts := range j.Tasks {
				queueWait += ts.totalWait
			}
			rec.AvgTaskQueueWait = queueWait / units.Time(len(j.Tasks))
			e.metrics.totalJobQueueWait += rec.AvgTaskQueueWait
			e.metrics.Jobs = append(e.metrics.Jobs, rec)
		}
		if o := e.cfg.Observer; o != nil {
			o.Observe(Event{Kind: JobCompleted, At: now, Job: j})
		}
	}
	if now > e.lastDone {
		e.lastDone = now
	}
	e.tryFill(k, now)
	// Completing t may have unblocked dependents: blind-started tasks
	// spinning in slots can begin real work, and runnable tasks queued on
	// other nodes can be dispatched.
	for _, c := range j.Dag.Children(t.Task.ID) {
		cs := j.Tasks[c]
		if !cs.DepsMet() {
			continue
		}
		switch {
		case cs.blocked && cs.Phase == Running:
			if cs.hasBlockEv {
				e.q.Cancel(cs.blockEv)
				cs.hasBlockEv = false
			}
			e.metrics.BlockedSlotTime += now - cs.effStart
			e.beginWork(cs.Node, cs, now)
		case (cs.Phase == Queued || cs.Phase == Suspended) && cs.Node != k:
			e.tryFill(cs.Node, now)
		}
	}
}

// epochTick runs the online preemption policy and re-arms itself.
func (e *Engine) epochTick(now units.Time) {
	e.epochIndex++
	if o := e.cfg.Observer; o != nil {
		o.Observe(Event{Kind: EpochStarted, At: now, N: e.epochIndex})
	}
	tm := e.cfg.Prof
	tm.Enter(prof.PhaseEpochPolicy)
	actions := e.cfg.Preemptor.Epoch(now, e.view)
	tm.Exit()
	tm.Enter(prof.PhaseActionApply)
	for _, a := range actions {
		e.applyAction(a, now)
	}
	for k := range e.nodes {
		e.tryFill(cluster.NodeID(k), now)
	}
	tm.Exit()
	if e.cfg.AuditInvariants {
		tm.Enter(prof.PhaseAudit)
		e.auditInvariants(now)
		tm.Exit()
	}
	if o := e.cfg.Observer; o != nil {
		o.Observe(Event{Kind: EpochEnded, At: now, N: e.epochIndex, View: e.view})
	}
	if e.jobsRemaining > 0 || e.streamingLive() {
		e.q.AfterTag(e.cfg.Epoch, eventq.Tag{Kind: evEpochTick}, eventq.Func(e.epochTick))
	}
}

// applyAction validates and executes one preemption. A starter whose
// precedents have not finished is a dependency disorder: the policy
// ordered an execution inconsistent with the dependency relation. The
// attempt is counted, but the node's launcher refuses to evict the
// victim for a task whose inputs do not exist — evicting anyway would,
// under a no-checkpoint policy, let a child suspend its own unfinished
// parent every epoch and live-lock the pair forever.
func (e *Engine) applyAction(a Action, now units.Time) {
	if a.Victim == nil || a.Starter == nil {
		return
	}
	if a.Victim.Phase != Running || a.Victim.Node != a.Node {
		return
	}
	if (a.Starter.Phase != Queued && a.Starter.Phase != Suspended) || a.Starter.Node != a.Node {
		return
	}
	if !a.Starter.DepsMet() {
		e.metrics.Disorders++
		if o := e.cfg.Observer; o != nil {
			o.Observe(Event{Kind: PreemptionConsidered, At: now, Decision: decisionOf(a, VerdictDisorder)})
			o.Observe(Event{Kind: DisorderDetected, At: now, Task: a.Victim, Starter: a.Starter, Node: a.Node})
		}
		return
	}
	e.suspend(a.Node, a.Victim, now)
	if o := e.cfg.Observer; o != nil {
		verdict := VerdictAccepted
		if a.Urgent {
			verdict = VerdictUrgentOverride
		}
		o.Observe(Event{Kind: PreemptionConsidered, At: now, Decision: decisionOf(a, verdict)})
		o.Observe(Event{Kind: TaskPreempted, At: now, Task: a.Victim, Starter: a.Starter, Node: a.Node})
	}
	e.start(a.Node, a.Starter, now)
}

// decisionOf renders an applied (or refused) action as the decision
// record its PreemptionConsidered event carries.
func decisionOf(a Action, verdict Verdict) PreemptionDecision {
	return PreemptionDecision{
		Node:              a.Node,
		Candidate:         a.Starter,
		Victim:            a.Victim,
		CandidatePriority: a.StarterPriority,
		VictimPriority:    a.VictimPriority,
		Gain:              a.StarterPriority - a.VictimPriority,
		Overhead:          a.PPThreshold,
		Urgent:            a.Urgent,
		Verdict:           verdict,
	}
}

// finalize computes derived metrics after the run.
func (e *Engine) finalize() {
	m := &e.metrics
	if e.lastDone > e.firstArrival {
		m.Makespan = e.lastDone - e.firstArrival
	}
	if m.Makespan > 0 {
		m.TaskThroughputPerMs = float64(m.TasksCompleted) / m.Makespan.Milliseconds()
		m.JobThroughputPerMin = float64(m.JobsMetDeadline) / (m.Makespan.Seconds() / 60)
		m.GoodputPerMs = float64(m.TasksCompleted-m.TasksWasted) / m.Makespan.Milliseconds()
	}
	if m.jobWaitSamples > 0 {
		m.AvgJobWait = m.totalJobWait / units.Time(m.jobWaitSamples)
	}
	if len(m.Jobs) > 0 {
		var total units.Time
		for _, r := range m.Jobs {
			q := (r.DoneAt - r.Arrival) - r.Ideal
			if q > 0 {
				total += q
			}
		}
		m.AvgJobQueueing = total / units.Time(len(m.Jobs))
		m.AvgJobWaiting = m.totalJobQueueWait / units.Time(len(m.Jobs))
	}
	if m.taskWaitSamples > 0 {
		m.AvgTaskWait = m.totalTaskWait / units.Time(m.taskWaitSamples)
	}
}
