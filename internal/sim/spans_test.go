package sim_test

import (
	"sort"
	"testing"

	"dsp/internal/baselines"
	"dsp/internal/chaos"
	"dsp/internal/cluster"
	"dsp/internal/dag"
	"dsp/internal/preempt"
	"dsp/internal/sched"
	"dsp/internal/sim"
	"dsp/internal/trace"
	"dsp/internal/units"
)

// spanCollector records every closed span and every completed job.
type spanCollector struct {
	spans map[dag.Key][]sim.TaskSpan
	jobs  []*sim.JobState
}

func newSpanCollector() *spanCollector {
	return &spanCollector{spans: make(map[dag.Key][]sim.TaskSpan)}
}

func (c *spanCollector) Observe(ev sim.Event) {
	switch ev.Kind {
	case sim.TaskSpanClosed:
		k := ev.Span.Task.Key()
		c.spans[k] = append(c.spans[k], ev.Span)
	case sim.JobCompleted:
		c.jobs = append(c.jobs, ev.Job)
	}
}

// checkTiling asserts the span-tiling invariant for every task of every
// completed job: spans are non-overlapping, gapless, start at the job's
// arrival and end at the task's completion.
func checkTiling(t *testing.T, c *spanCollector) {
	t.Helper()
	if len(c.jobs) == 0 {
		t.Fatal("no completed jobs observed")
	}
	for _, j := range c.jobs {
		for _, ts := range j.Tasks {
			key := ts.Key()
			spans := append([]sim.TaskSpan(nil), c.spans[key]...)
			if len(spans) == 0 {
				t.Errorf("%v: no spans recorded", key)
				continue
			}
			sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
			if spans[0].Start != j.Arrival {
				t.Errorf("%v: first span starts at %v, want job arrival %v", key, spans[0].Start, j.Arrival)
			}
			for i, s := range spans {
				if s.End <= s.Start {
					t.Errorf("%v: span %d [%v, %v) is empty or inverted", key, i, s.Start, s.End)
				}
				if i > 0 && s.Start != spans[i-1].End {
					t.Errorf("%v: span %d starts at %v but span %d ended at %v (gap or overlap)",
						key, i, s.Start, i-1, spans[i-1].End)
				}
			}
			if last := spans[len(spans)-1].End; last != ts.DoneAt {
				t.Errorf("%v: last span ends at %v, want completion %v", key, last, ts.DoneAt)
			}
		}
	}
}

func spanWorkload(t *testing.T, jobs int, seed int64) *trace.Workload {
	t.Helper()
	spec := trace.DefaultSpec(jobs, seed)
	spec.TaskScale = 0.02
	spec.MeanTaskSizeMI /= 0.02
	w, err := trace.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSpanTilingPlain covers the base DSP stack: offline periods,
// online preemption, suspensions and resumes.
func TestSpanTilingPlain(t *testing.T) {
	c := newSpanCollector()
	cp := cluster.DefaultCheckpoint()
	cp.Interval = 500 * units.Millisecond // below the 1 s epoch
	_, err := sim.Run(sim.Config{
		Cluster:    cluster.RealCluster(4),
		Scheduler:  sched.NewDSP(),
		Preemptor:  preempt.NewDSP(),
		Checkpoint: cp,
		Period:     units.Minute,
		Epoch:      units.Second,
		Observer:   c,
	}, spanWorkload(t, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	checkTiling(t, c)
}

// TestSpanTilingChaos covers crashes, stragglers, transient faults,
// retries with backoff, and speculation — every burst-ending path.
func TestSpanTilingChaos(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		cl := cluster.RealCluster(8)
		cs := chaos.DefaultSpec(cl.Len(), seed)
		cs.FaultyFraction = 0.4
		plan, err := cs.Plan()
		if err != nil {
			t.Fatal(err)
		}
		c := newSpanCollector()
		_, err = sim.Run(sim.Config{
			Cluster:      cl,
			Scheduler:    sched.NewDSP(),
			Preemptor:    preempt.NewDSP(),
			Checkpoint:   cluster.DefaultCheckpoint(),
			Epoch:        10 * units.Second,
			Faults:       plan,
			Speculation:  &sim.Speculation{},
			RetryBackoff: 2 * units.Second,
			Observer:     c,
		}, spanWorkload(t, 12, seed))
		if err != nil {
			t.Fatal(err)
		}
		checkTiling(t, c)
	}
}

// TestSpanTilingBlind covers the dependency-blind path: blind starts,
// blocked slots, blind-timeout requeues.
func TestSpanTilingBlind(t *testing.T) {
	c := newSpanCollector()
	_, err := sim.Run(sim.Config{
		Cluster:      cluster.RealCluster(4),
		Scheduler:    &baselines.Tetris{},
		Preemptor:    baselines.NewSRPT(),
		Checkpoint:   cluster.DefaultCheckpoint(),
		Period:       units.Minute,
		Epoch:        5 * units.Second,
		BlindTimeout: 20 * units.Second,
		Observer:     c,
	}, spanWorkload(t, 6, 5))
	if err != nil {
		t.Fatal(err)
	}
	checkTiling(t, c)
}
