package baselines

import (
	"errors"
	"sync/atomic"
	"testing"

	"dsp/internal/cluster"
	"dsp/internal/sim"
	"dsp/internal/trace"
	"dsp/internal/units"
)

// viewCapture wraps a preemptor and freezes the simulation at the first
// epoch whose deepest node queue holds at least depth tasks: it records
// that epoch's view, returns no actions and raises the run's interrupt,
// so the engine stops with the view intact.
type viewCapture struct {
	sim.Preemptor
	depth int
	stop  atomic.Bool
	now   units.Time
	view  *sim.View
}

func (c *viewCapture) Epoch(now units.Time, v *sim.View) []sim.Action {
	if c.view != nil {
		return nil
	}
	for k := 0; k < v.Cluster().Len(); k++ {
		if len(v.Queue(cluster.NodeID(k))) >= c.depth && len(v.Running(cluster.NodeID(k))) > 0 {
			c.now, c.view = now, v
			c.stop.Store(true)
			return nil
		}
	}
	return c.Preemptor.Epoch(now, v)
}

// captureDeepView runs a contended workload under pre until some node's
// waiting queue reaches depth and returns that epoch's frozen view.
func captureDeepView(b *testing.B, pre sim.Preemptor, cp cluster.CheckpointPolicy, depth int) (units.Time, *sim.View) {
	b.Helper()
	spec := trace.DefaultSpec(8, 3)
	spec.TaskScale = 0.3
	spec.MeanTaskSizeMI *= 25
	w, err := trace.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	c := &viewCapture{Preemptor: pre, depth: depth}
	_, err = sim.Run(sim.Config{
		Cluster:    cluster.EC2(3),
		Scheduler:  rrScheduler{},
		Preemptor:  c,
		Checkpoint: cp,
		Interrupt:  &c.stop,
		MaxEvents:  5_000_000,
	}, w)
	if c.view == nil || !errors.Is(err, sim.ErrInterrupted) {
		b.Fatalf("%s: no node queue reached %d tasks (err=%v)", pre.Name(), depth, err)
	}
	return c.now, c.view
}

// BenchmarkPreemptorEpoch times one Epoch call of each baseline
// preemptor on a view with a deep waiting queue, captured from a
// contended run under that preemptor.
func BenchmarkPreemptorEpoch(b *testing.B) {
	for _, p := range []struct {
		pre sim.Preemptor
		cp  cluster.CheckpointPolicy
	}{
		{NewSRPT(), cluster.NoCheckpoint()},
		{Amoeba{}, cluster.DefaultCheckpoint()},
		{Natjam{}, cluster.DefaultCheckpoint()},
	} {
		now, v := captureDeepView(b, p.pre, p.cp, 256)
		b.Run(p.pre.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.pre.Epoch(now, v)
			}
		})
	}
}
