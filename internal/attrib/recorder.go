package attrib

import (
	"sync"

	"dsp/internal/dag"
	"dsp/internal/sim"
)

// Recorder is a sim.Observer that collects task spans as the engine
// emits them and attributes each job the moment it completes. It is
// safe for concurrent reads (the telemetry server scrapes aggregates
// while the simulation owns the write path).
type Recorder struct {
	mu    sync.Mutex
	spans map[dag.Key][]Span
	jobs  []JobAttribution
	onJob func(JobAttribution)
	// agg and aggJobs accumulate the blame sum and count at completion
	// time, so Aggregate stays O(1) and correct even after old per-job
	// records are evicted under a retention bound.
	agg     Blame
	aggJobs int
	// retention bounds len(jobs): once full, each completion evicts the
	// oldest record. 0 = unbounded (the batch default).
	retention int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{spans: make(map[dag.Key][]Span)}
}

// OnJob registers a callback invoked (synchronously, from the engine's
// event loop) with each completed job's attribution.
func (r *Recorder) OnJob(fn func(JobAttribution)) { r.onJob = fn }

// SetRetention bounds the per-job attribution history to the most
// recent n completions (0 restores the unbounded batch default). A
// long-running daemon sets this so Jobs cannot grow with the job
// history; Aggregate still covers every completion ever recorded.
func (r *Recorder) SetRetention(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retention = n
	if n > 0 && len(r.jobs) > n {
		r.jobs = append(r.jobs[:0], r.jobs[len(r.jobs)-n:]...)
	}
}

// BeginRun resets the recorder between runs of a sweep.
func (r *Recorder) BeginRun(string) { r.Reset() }

// Reset discards all recorded spans, attributions and aggregates.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = make(map[dag.Key][]Span)
	r.jobs = nil
	r.agg = Blame{}
	r.aggJobs = 0
}

// Observe implements sim.Observer: it keeps TaskSpanClosed spans and
// attributes each job at its JobCompleted event.
func (r *Recorder) Observe(ev sim.Event) {
	switch ev.Kind {
	case sim.TaskSpanClosed:
		r.addSpan(ev.Span)
	case sim.JobCompleted:
		r.completeJob(ev.Job)
	}
}

func (r *Recorder) addSpan(s sim.TaskSpan) {
	k := s.Task.Key()
	r.mu.Lock()
	r.spans[k] = append(r.spans[k], Span{
		Cause: CauseOfSpan(s.Kind, s.Cause),
		Start: s.Start,
		End:   s.End,
		Node:  int(s.Node),
	})
	r.mu.Unlock()
}

// completeJob attributes the job immediately and releases its per-task
// span records, bounding memory to in-flight jobs.
func (r *Recorder) completeJob(j *sim.JobState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	att := Attribute(j, func(id dag.TaskID) []Span {
		return r.spans[dag.Key{Job: j.Dag.ID, Task: id}]
	})
	for id := range j.Tasks {
		delete(r.spans, dag.Key{Job: j.Dag.ID, Task: dag.TaskID(id)})
	}
	r.agg.Merge(att.Blame)
	r.aggJobs++
	if r.retention > 0 && len(r.jobs) >= r.retention {
		n := copy(r.jobs, r.jobs[len(r.jobs)-r.retention+1:])
		r.jobs = append(r.jobs[:n], att)
	} else {
		r.jobs = append(r.jobs, att)
	}
	if r.onJob != nil {
		r.onJob(att)
	}
}

// Jobs returns a copy of the attributions recorded so far (the most
// recent ones, under a retention bound), in completion order.
func (r *Recorder) Jobs() []JobAttribution {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]JobAttribution(nil), r.jobs...)
}

// Aggregate returns the blame sum and count over every job ever
// attributed — including records evicted by the retention bound.
func (r *Recorder) Aggregate() (Blame, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.agg, r.aggJobs
}
