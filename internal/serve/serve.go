// Package serve is the scheduler-as-a-service layer: a long-running
// daemon that wraps one streaming sim.Engine behind an HTTP/JSON
// ingestion API, paces its virtual clock against wall time, and wires
// in the repo's durability (internal/recover), observability
// (internal/obs, internal/attrib) and profiling (internal/prof)
// subsystems.
//
// Threading model: one mutex serializes every touch of the engine — the
// pacer goroutine's StepUntil, HTTP submissions/cancellations/status
// reads, and the final drain. The engine stays single-threaded exactly
// as the batch simulator assumes; concurrency lives entirely on this
// side of the lock. Telemetry scrapes (/metrics, /snapshot) bypass the
// lock by design: counters are atomic and the attribution recorder
// locks internally.
//
// Durability contract: a submission is acknowledged (HTTP 202) only
// after it is (a) accepted and stamped by the engine and (b) appended
// and fsynced to the submission journal — in that order, under the
// lock, so every entry the engine ever drains is already durable. A
// journal write failure latches the daemon fatal: it stops accepting
// work rather than acknowledge submissions a crash would silently drop.
// Resume splices the journal at EngineState.IngestApplied: the first
// IngestApplied entries rebuild the snapshot's world, the rest replay
// through SubmitStamped/CancelStamped.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dsp/internal/attrib"
	"dsp/internal/cluster"
	"dsp/internal/dag"
	"dsp/internal/experiments"
	"dsp/internal/obs"
	"dsp/internal/prof"
	"dsp/internal/recover"
	"dsp/internal/sim"
	"dsp/internal/trace"
	"dsp/internal/units"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrBusy is backpressure: admitting the job would push the pending
	// backlog (scheduled world + undrained ingestion queue) past the
	// configured bound. Clients should retry after the next scheduling
	// period.
	ErrBusy = errors.New("serve: pending-task backlog full")
	// ErrDuplicate rejects a submission whose job ID is already known.
	ErrDuplicate = errors.New("serve: duplicate job id")
	// ErrUnknownJob rejects an operation on a never-submitted job ID.
	ErrUnknownJob = errors.New("serve: unknown job id")
	// ErrShuttingDown rejects ingestion once the daemon begins draining.
	ErrShuttingDown = errors.New("serve: shutting down")
)

// attribRetention bounds the per-job attribution history the daemon
// keeps for GET /jobs/{id} blame reporting. Aggregates (served on
// /metrics) still cover every completion.
const attribRetention = 4096

// Config parameterizes a Daemon.
type Config struct {
	// Listen is the TCP address Run binds ("127.0.0.1:8080"; ":0" picks
	// an ephemeral port, see Addr).
	Listen string
	// CheckpointDir, when set, enables durability: periodic engine
	// snapshots + decision WAL (internal/recover) and the submission
	// journal, all in this directory.
	CheckpointDir string
	// Resume restarts from CheckpointDir's latest snapshot and journal
	// instead of starting fresh. The scheduling configuration (platform,
	// scheduler, preemptor, period, epoch, admission bound) must match
	// the original run's; the snapshot world fingerprint rejects
	// mismatched worlds.
	Resume bool
	// SnapshotEveryK snapshots every k-th scheduling period (default 3).
	SnapshotEveryK int
	// Scheduler and Preemptor name the methods (experiments registry
	// names). Preemptor "" disables the online preemption phase.
	Scheduler string
	Preemptor string
	// Platform selects the cluster profile.
	Platform experiments.Platform
	// Period and Epoch are the scheduling intervals (defaults: the
	// paper's 5 minutes and 10 seconds).
	Period units.Time
	Epoch  units.Time
	// MaxPendingTasks bounds the cluster-wide backlog of unfinished
	// admitted tasks. Beyond HTTP backpressure (429) it also arms the
	// engine's own admission control, so jobs that slip past the HTTP
	// check under race still shed rather than grow the queues without
	// bound. 0 disables both.
	MaxPendingTasks int
	// Rate is the virtual-per-wall time multiplier for the pacer: 1
	// serves in real time, 60 compresses a minute of simulated time into
	// a wall second (default 1).
	Rate float64
	// MaxBodyBytes caps a submission body (default 1 MiB).
	MaxBodyBytes int64
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Daemon is one serving instance: a streaming engine plus its pacer,
// HTTP surface, telemetry and durability sinks.
type Daemon struct {
	cfg Config

	mu    sync.Mutex // serializes all engine access
	eng   *sim.Engine
	jl    *journal
	fatal error // latched first unrecoverable error
	done  bool  // drain finished; sinks closed

	counters *obs.Counters
	rec      *attrib.Recorder
	tm       *prof.Timer
	tel      *obs.Server
	mgr      *recover.Manager

	interrupt atomic.Bool // engine stop flag (second-signal path)
	draining  atomic.Bool // refuses new ingestion during drain
	pacerOff  chan struct{}
	stopPacer sync.Once

	mux *http.ServeMux

	wallStart time.Time  // pacing origin (wall)
	virtStart units.Time // pacing origin (virtual; snapshot Now on resume)

	// addr is the bound listen address, published by Run for Addr
	// callers on other goroutines.
	addr atomic.Pointer[string]
}

// New builds a Daemon: fresh when cfg.Resume is false, otherwise
// restored from cfg.CheckpointDir's snapshot + journal.
func New(cfg Config) (*Daemon, error) {
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:8080"
	}
	if cfg.SnapshotEveryK <= 0 {
		cfg.SnapshotEveryK = 3
	}
	if cfg.Scheduler == "" {
		cfg.Scheduler = "DSP"
	}
	if cfg.Period <= 0 {
		cfg.Period = 5 * units.Minute
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = 10 * units.Second
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 1
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Resume && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("serve: -resume requires a checkpoint dir")
	}

	d := &Daemon{
		cfg:      cfg,
		counters: obs.NewCounters(),
		rec:      attrib.NewRecorder(),
		tm:       prof.New(),
		pacerOff: make(chan struct{}),
	}
	d.rec.SetRetention(attribRetention)
	d.tel = obs.NewTelemetry(d.counters, d.rec, d.tm)

	simCfg, err := d.buildSimConfig()
	if err != nil {
		return nil, err
	}
	if err := d.buildEngine(simCfg); err != nil {
		return nil, err
	}
	d.buildMux()
	d.wallStart = time.Now()
	return d, nil
}

// buildSimConfig translates the daemon Config into the engine's,
// leaving Observer/Durability for buildEngine (they depend on whether a
// recover.Manager exists).
func (d *Daemon) buildSimConfig() (sim.Config, error) {
	sc := sim.Config{
		Cluster:    d.cfg.Platform.Cluster(),
		Period:     d.cfg.Period,
		Epoch:      d.cfg.Epoch,
		Checkpoint: cluster.DefaultCheckpoint(),
		Streaming:  true,
		Prof:       d.tm,
		Interrupt:  &d.interrupt,
	}
	var err error
	if sc.Scheduler, err = experiments.NewScheduler(d.cfg.Scheduler); err != nil {
		return sc, err
	}
	if d.cfg.Preemptor != "" {
		if sc.Preemptor, sc.Checkpoint, err = experiments.NewPreemptor(d.cfg.Preemptor); err != nil {
			return sc, err
		}
	}
	if d.cfg.MaxPendingTasks > 0 {
		sc.Admission = &sim.Admission{MaxPendingTasks: d.cfg.MaxPendingTasks}
	}
	return sc, nil
}

// observers assembles the engine observer chain. The recover.Manager —
// when present — goes last, so WAL records follow any state the other
// observers derive from the same event.
func (d *Daemon) observers() sim.Observers {
	return sim.Observers{d.counters, d.rec, d.tel}
}

// buildEngine constructs the engine on the fresh or resume path.
func (d *Daemon) buildEngine(simCfg sim.Config) error {
	if d.cfg.CheckpointDir == "" {
		simCfg.Observer = d.observers()
		eng, err := sim.Prepare(simCfg, &trace.Workload{})
		if err != nil {
			return err
		}
		d.eng = eng
		return nil
	}
	if !d.cfg.Resume {
		mgr, err := recover.NewManager(d.cfg.CheckpointDir, d.cfg.SnapshotEveryK)
		if err != nil {
			return err
		}
		jl, err := createJournal(d.cfg.CheckpointDir)
		if err != nil {
			return err
		}
		d.mgr, d.jl = mgr, jl
		mgr.Peer = d.observers()
		simCfg.Observer = append(d.observers(), mgr)
		simCfg.Durability = mgr
		eng, err := sim.Prepare(simCfg, &trace.Workload{})
		if err != nil {
			return err
		}
		d.eng = eng
		return nil
	}
	return d.resumeEngine(simCfg)
}

// resumeEngine restores engine state from the checkpoint directory:
// snapshot + WAL roll-forward for the drained world, then journal-tail
// replay for submissions the snapshot had not ingested. When no usable
// snapshot exists (killed before the first one), the whole journal
// replays into a fresh engine — the journal alone is sufficient.
func (d *Daemon) resumeEngine(simCfg sim.Config) error {
	entries, err := readJournal(d.cfg.CheckpointDir)
	if err != nil {
		return err
	}
	mgr, st, err := recover.Resume(d.cfg.CheckpointDir, d.cfg.SnapshotEveryK)
	if errors.Is(err, recover.ErrNoSnapshot) {
		// NewManager clears stale snapshot/WAL generations only; the
		// journal file is ours and survives.
		if mgr, err = recover.NewManager(d.cfg.CheckpointDir, d.cfg.SnapshotEveryK); err != nil {
			return err
		}
		st = nil
	} else if err != nil {
		return err
	}
	d.mgr = mgr
	mgr.Peer = d.observers()
	chain := append(d.observers(), mgr)
	simCfg.Observer = chain
	simCfg.Durability = mgr

	applied := 0
	if st != nil {
		applied = st.IngestApplied
	}
	if applied > len(entries) {
		return fmt.Errorf("serve: snapshot drained %d journal entries but only %d are on disk", applied, len(entries))
	}
	var w trace.Workload
	for _, e := range entries[:applied] {
		if e.Op != "submit" {
			continue
		}
		tj, err := decodeSubmission(e)
		if err != nil {
			return err
		}
		w.Jobs = append(w.Jobs, tj)
	}
	var eng *sim.Engine
	if st != nil {
		if eng, err = sim.PrepareResume(simCfg, &w, st); err != nil {
			return err
		}
		d.virtStart = st.Now
		chain.Observe(sim.Event{Kind: sim.RecoveryStarted, At: st.Now, N: st.PeriodIndex})
	} else {
		if eng, err = sim.Prepare(simCfg, &trace.Workload{}); err != nil {
			return err
		}
	}
	for i, e := range entries[applied:] {
		switch e.Op {
		case "submit":
			tj, err := decodeSubmission(e)
			if err != nil {
				return err
			}
			err = eng.SubmitStamped(tj, units.Time(e.StampUS))
			if err != nil {
				return fmt.Errorf("serve: journal entry %d: %w", applied+i, err)
			}
		case "cancel":
			if err := eng.CancelStamped(dag.JobID(e.ID), units.Time(e.StampUS)); err != nil {
				return fmt.Errorf("serve: journal entry %d: %w", applied+i, err)
			}
		default:
			return fmt.Errorf("serve: journal entry %d: unknown op %q", applied+i, e.Op)
		}
	}
	if jl, err := openJournal(d.cfg.CheckpointDir); err != nil {
		return err
	} else {
		d.jl = jl
	}
	d.eng = eng
	d.logf("resumed: %d journal entries (%d pre-snapshot), virtual clock %.1fs",
		len(entries), applied, d.virtStart.Seconds())
	return nil
}

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// VirtualNow maps wall time onto the virtual clock: the pacer target.
func (d *Daemon) VirtualNow() units.Time {
	wall := time.Since(d.wallStart)
	return d.virtStart + units.Time(float64(wall.Microseconds())*d.cfg.Rate)
}

// Step advances the engine's virtual clock to target, firing every
// event due on the way. Exported for deterministic tests and the
// pacer; HTTP serving alone never needs it.
func (d *Daemon) Step(target units.Time) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fatal != nil {
		return d.fatal
	}
	before := d.eng.PeriodIndex()
	t0 := time.Now()
	_, err := d.eng.StepUntil(target)
	if d.eng.PeriodIndex() > before {
		// Serving-period latency: wall time of a Step that crossed at
		// least one scheduling-period boundary. Recorded as a direct
		// sample — it OVERLAPS the exclusive engine phases (plan-build
		// etc.) rather than tiling with them; see PERF.md.
		d.tm.Observe(prof.PhaseServePeriod, time.Since(t0).Nanoseconds())
	}
	if err != nil {
		d.fatal = err
	}
	return err
}

// tickInterval picks the pacer's wall-clock tick so several ticks land
// inside each scheduling period (latency samples stay per-period, and
// ingestion drains promptly), clamped to [10ms, 200ms].
func (d *Daemon) tickInterval() time.Duration {
	wallPerPeriod := time.Duration(float64(d.cfg.Period.Seconds())/d.cfg.Rate*1e9) * time.Nanosecond
	iv := wallPerPeriod / 8
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	if iv > 200*time.Millisecond {
		iv = 200 * time.Millisecond
	}
	return iv
}

func (d *Daemon) pace(errc chan<- error) {
	t := time.NewTicker(d.tickInterval())
	defer t.Stop()
	for {
		select {
		case <-d.pacerOff:
			return
		case <-t.C:
			if err := d.Step(d.VirtualNow()); err != nil {
				errc <- err
				return
			}
		}
	}
}

func (d *Daemon) haltPacer() {
	d.stopPacer.Do(func() { close(d.pacerOff) })
}

// SubmitJob runs the full ingestion path: backpressure check, engine
// accept + stamp, journal append + fsync — all under the lock, so every
// drained entry is already durable. Returns the assigned virtual
// arrival stamp.
func (d *Daemon) SubmitJob(tj *trace.Job) (units.Time, error) {
	if d.draining.Load() {
		return 0, ErrShuttingDown
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fatal != nil {
		return 0, fmt.Errorf("%w: %v", ErrShuttingDown, d.fatal)
	}
	if tj != nil && tj.DAG != nil {
		if _, known := d.eng.JobStatus(tj.DAG.ID); known {
			return 0, fmt.Errorf("%w: %d", ErrDuplicate, tj.DAG.ID)
		}
		if bound := d.cfg.MaxPendingTasks; bound > 0 {
			if d.eng.PendingBacklog()+d.eng.IngestTaskCount()+tj.DAG.Len() > bound {
				return 0, ErrBusy
			}
		}
	}
	stamp, err := d.eng.Submit(tj)
	if err != nil {
		return 0, err
	}
	if d.jl != nil {
		raw, jerr := trace.EncodeJob(tj) // Arrival now carries the stamp
		if jerr == nil {
			jerr = d.jl.append(journalEntry{Op: "submit", StampUS: int64(stamp), Job: raw})
		}
		if jerr != nil {
			d.fatal = jerr
			return 0, jerr
		}
	}
	return stamp, nil
}

// CancelJob queues a cancellation for id. Idempotent for known jobs
// (cancelling a settled or already-cancelled job is a no-op).
func (d *Daemon) CancelJob(id dag.JobID) (units.Time, error) {
	if d.draining.Load() {
		return 0, ErrShuttingDown
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fatal != nil {
		return 0, fmt.Errorf("%w: %v", ErrShuttingDown, d.fatal)
	}
	if _, known := d.eng.JobStatus(id); !known {
		return 0, fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	stamp, err := d.eng.RequestCancel(id)
	if err != nil {
		return 0, err
	}
	if d.jl != nil {
		if jerr := d.jl.append(journalEntry{Op: "cancel", StampUS: int64(stamp), ID: int(id)}); jerr != nil {
			d.fatal = jerr
			return 0, jerr
		}
	}
	return stamp, nil
}

// Status returns the job's engine-visible status plus — for completed
// jobs still inside the attribution retention window — its latency
// blame breakdown.
func (d *Daemon) Status(id dag.JobID) (sim.JobStatus, *attrib.JobAttribution, bool) {
	d.mu.Lock()
	st, ok := d.eng.JobStatus(id)
	d.mu.Unlock()
	if !ok {
		return st, nil, false
	}
	if st.State == "completed" {
		for _, att := range d.rec.Jobs() {
			if att.Job == id {
				a := att
				return st, &a, true
			}
		}
	}
	return st, nil, true
}

// IdleNow reports whether every drained job has settled and no
// submission is queued (replay mode polls it to know when to drain).
func (d *Daemon) IdleNow() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.eng.Idle()
}

// WaitIdle blocks until the engine goes idle (or ctx ends): replay mode
// uses it to know when everything submitted has settled.
func (d *Daemon) WaitIdle(ctx context.Context) {
	t := time.NewTicker(d.tickInterval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if d.IdleNow() {
				return
			}
		}
	}
}

// Interrupt makes the next engine step stop at an inter-event boundary,
// take a final durability snapshot and fail with sim.ErrInterrupted —
// the "second signal" hard-stop path. The checkpoint directory stays
// resumable.
func (d *Daemon) Interrupt() { d.interrupt.Store(true) }

// Handler exposes the daemon's full HTTP surface (job routes +
// telemetry) without binding a listener, for tests.
func (d *Daemon) Handler() http.Handler { return d.mux }

// Addr returns the bound listen address once Run has started ("" before).
// Safe to call from any goroutine.
func (d *Daemon) Addr() string {
	if a := d.addr.Load(); a != nil {
		return *a
	}
	return ""
}

// Run serves until ctx is cancelled (graceful drain: stop accepting,
// finish every queued and in-flight job at CPU speed, close the
// durability sinks, return the final metrics) or a step fails. On
// sim.ErrInterrupted the final snapshot is already on disk and the
// error is returned for the caller to map to its exit status.
func (d *Daemon) Run(ctx context.Context) (*sim.Result, error) {
	ln, err := net.Listen("tcp", d.cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", d.cfg.Listen, err)
	}
	addr := ln.Addr().String()
	d.addr.Store(&addr)
	srv := &http.Server{Handler: d.mux, ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	stepErr := make(chan error, 1)
	go d.pace(stepErr)
	d.logf("serving on %s (rate %gx, period %.0fs)", d.Addr(), d.cfg.Rate, d.cfg.Period.Seconds())

	var cause error
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		cause = fmt.Errorf("serve: http: %w", err)
	case err := <-stepErr:
		cause = err
	}
	d.draining.Store(true)
	d.haltPacer()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(shutCtx) //nolint:errcheck // in-flight requests get the timeout
	res, derr := d.Drain()
	if cause != nil {
		return res, cause
	}
	return res, derr
}

// Drain finishes the streaming run: ingestion closes, everything queued
// runs to completion at CPU speed, and the durability sinks close.
// Safe to call once directly in tests (Run calls it on the way out).
func (d *Daemon) Drain() (*sim.Result, error) {
	d.draining.Store(true)
	d.haltPacer()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done {
		return nil, d.fatal
	}
	d.done = true
	var res *sim.Result
	var err error
	if d.fatal != nil {
		err = d.fatal
	} else {
		res, err = d.eng.FinishStreaming()
		if err != nil {
			d.fatal = err
		}
	}
	if d.mgr != nil {
		if cerr := d.mgr.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if cerr := d.jl.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return res, err
}

// Profile returns the daemon's phase-timing snapshot (the serve-period
// distribution lives under prof.PhaseServePeriod).
func (d *Daemon) Profile() []prof.PhaseBreakdown {
	snap := d.tm.Snapshot()
	return snap.Breakdown()
}

// Replay submits w's jobs through the normal ingestion path, pacing
// each submission so it lands near its recorded arrival stamp on the
// daemon's virtual clock. Backpressure (ErrBusy) retries after a
// scheduling period; other errors abort. Returns the number of jobs
// accepted.
func (d *Daemon) Replay(ctx context.Context, w *trace.Workload) (int, error) {
	jobs := append([]*trace.Job(nil), w.Jobs...)
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Arrival < jobs[j].Arrival })
	retryWall := time.Duration(float64(d.cfg.Period.Seconds())/d.cfg.Rate*1e9) * time.Nanosecond
	accepted := 0
	for _, tj := range jobs {
		for d.VirtualNow() < tj.Arrival {
			wait := time.Duration(float64((tj.Arrival - d.VirtualNow()).Seconds()) / d.cfg.Rate * 1e9)
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
			select {
			case <-ctx.Done():
				return accepted, ctx.Err()
			case <-time.After(wait):
			}
		}
		for {
			_, err := d.SubmitJob(tj)
			if err == nil {
				accepted++
				break
			}
			if !errors.Is(err, ErrBusy) {
				return accepted, fmt.Errorf("serve: replay job %d: %w", tj.DAG.ID, err)
			}
			select {
			case <-ctx.Done():
				return accepted, ctx.Err()
			case <-time.After(retryWall):
			}
		}
	}
	return accepted, nil
}
