package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"dsp/internal/sim"
)

// tinyOptions keeps the test sweep fast while exercising the full
// harness.
func tinyOptions() Options {
	o := DefaultOptions()
	o.Scale = 0.02
	o.JobCounts = []int{24, 48}
	o.ScaleJobCounts = []int{30, 60}
	return o
}

func TestFig5ShapesRealCluster(t *testing.T) {
	tb, err := Fig5(Real, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	xs := tb.Xs()
	if len(xs) != 2 {
		t.Fatalf("xs = %v", xs)
	}
	for _, m := range SchedulerNames() {
		col := tb.Column(m)
		for i, v := range col {
			if math.IsNaN(v) || v <= 0 {
				t.Fatalf("%s[%d] = %v", m, i, v)
			}
		}
		// Makespan grows with the number of jobs.
		if col[1] <= col[0] {
			t.Errorf("%s makespan not increasing: %v", m, col)
		}
	}
	// Paper shape: DSP < TetrisW/oDep.
	for _, x := range xs {
		if tb.Get(x, "DSP") > tb.Get(x, "TetrisW/oDep") {
			t.Errorf("at h=%v DSP makespan %v > TetrisW/oDep %v",
				x, tb.Get(x, "DSP"), tb.Get(x, "TetrisW/oDep"))
		}
	}
}

// fig6TablesSHA256 is the sha256 of every Fig6(Real) and Fig6(EC2)
// panel rendered at tinyOptions(), recorded before the baseline
// preemptors moved from per-epoch sorts to the keyed heap matcher. Any
// change to a preemption decision, a table value or its formatting
// moves it.
const fig6TablesSHA256 = "589a5bd3865c1fe6beeabd08cf5427d1a22e314d78771801f38da1948873b471"

// TestFig6TablesPinned pins the rendered Fig 6/7 tables byte for byte, so
// a preemptor optimization that changes any decision fails tier-1.
func TestFig6TablesPinned(t *testing.T) {
	var sb strings.Builder
	for _, p := range []Platform{Real, EC2} {
		f, err := Fig6(p, tinyOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range f.All() {
			sb.WriteString(tb.Render())
		}
	}
	sum := sha256.Sum256([]byte(sb.String()))
	if got := hex.EncodeToString(sum[:]); got != fig6TablesSHA256 {
		t.Errorf("Fig6 tables sha256 = %s, want %s; rendered tables:\n%s", got, fig6TablesSHA256, sb.String())
	}
}

func TestFig6ShapesRealCluster(t *testing.T) {
	f, err := Fig6(Real, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range f.All() {
		for _, m := range PreemptorNames() {
			for i, v := range tb.Column(m) {
				if math.IsNaN(v) {
					t.Fatalf("%s: %s[%d] unset", tb.Title, m, i)
				}
			}
		}
	}
	// Paper shape: DSP never violates dependency order.
	for _, v := range f.Disorders.Column("DSP") {
		if v != 0 {
			t.Errorf("DSP disorders = %v, want 0", v)
		}
	}
	for _, v := range f.Disorders.Column("DSPW/oPP") {
		if v != 0 {
			t.Errorf("DSPW/oPP disorders = %v, want 0", v)
		}
	}
	// Paper shape: DSP preempts no more than DSPW/oPP (PP filters), and
	// far less than SRPT.
	for _, x := range f.Preemptions.Xs() {
		dsp := f.Preemptions.Get(x, "DSP")
		nopp := f.Preemptions.Get(x, "DSPW/oPP")
		srpt := f.Preemptions.Get(x, "SRPT")
		if dsp > nopp {
			t.Errorf("h=%v: DSP preemptions %v > DSPW/oPP %v", x, dsp, nopp)
		}
		if dsp > srpt {
			t.Errorf("h=%v: DSP preemptions %v > SRPT %v", x, dsp, srpt)
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	f, err := Fig8(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range f.Makespan.Xs() {
		real := f.Makespan.Get(x, "real-cluster")
		ec2 := f.Makespan.Get(x, "ec2")
		if math.IsNaN(real) || math.IsNaN(ec2) || real <= 0 || ec2 <= 0 {
			t.Fatalf("unset cells at h=%v", x)
		}
		// 30 slower nodes cannot beat 50 faster ones.
		if ec2 < real {
			t.Errorf("h=%v: EC2 makespan %v < real cluster %v", x, ec2, real)
		}
	}
	for _, col := range [][]float64{f.Throughput.Column("real-cluster"), f.Throughput.Column("ec2")} {
		for i, v := range col {
			if math.IsNaN(v) || v <= 0 {
				t.Fatalf("throughput[%d] = %v", i, v)
			}
		}
	}
}

func TestMethodRegistries(t *testing.T) {
	for _, n := range SchedulerNames() {
		s, err := NewScheduler(n)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != n {
			t.Errorf("scheduler %q reports name %q", n, s.Name())
		}
	}
	for _, n := range PreemptorNames() {
		p, _, err := NewPreemptor(n)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != n {
			t.Errorf("preemptor %q reports name %q", n, p.Name())
		}
	}
	if _, err := NewScheduler("nope"); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if _, _, err := NewPreemptor("nope"); err == nil {
		t.Error("unknown preemptor accepted")
	}
	// SRPT must run without checkpointing (the paper's distinguishing
	// detail).
	_, cp, _ := NewPreemptor("SRPT")
	if cp.Enabled {
		t.Error("SRPT should have checkpointing disabled")
	}
	_, cp, _ = NewPreemptor("DSP")
	if !cp.Enabled {
		t.Error("DSP should have checkpointing enabled")
	}
}

func TestPlatformClusters(t *testing.T) {
	if Real.Cluster().Len() != 50 {
		t.Error("real cluster should have 50 nodes")
	}
	if EC2.Cluster().Len() != 30 {
		t.Error("EC2 should have 30 instances")
	}
	if Real.String() != "real-cluster" || EC2.String() != "ec2" {
		t.Error("platform names")
	}
}

func TestTableII(t *testing.T) {
	tb := TableII()
	if len(tb.Xs()) != 16 {
		t.Errorf("Table II has %d rows", len(tb.Xs()))
	}
	if tb.Get(7, "value") != 0.35 {
		t.Errorf("delta = %v, want 0.35", tb.Get(7, "value"))
	}
}

func TestWorkloadDeterministicAcrossCells(t *testing.T) {
	o := tinyOptions()
	a, err := workloadFor(24, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workloadFor(24, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatal("lengths differ")
	}
	for i := range a.Jobs {
		if a.Jobs[i].Arrival != b.Jobs[i].Arrival || a.Jobs[i].DAG.NumEdges() != b.Jobs[i].DAG.NumEdges() {
			t.Fatalf("workload not deterministic at job %d", i)
		}
	}
}

func TestSensitivitySweep(t *testing.T) {
	o := tinyOptions()
	for _, p := range []SensitivityParam{ParamGamma, ParamDelta, ParamRho, ParamOmega1, ParamEpoch} {
		vals := SensitivityValues(p)[:2]
		tb, err := Sensitivity(p, vals, Real, 24, o)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(tb.Xs()) != 2 {
			t.Fatalf("%s: xs = %v", p, tb.Xs())
		}
		for _, x := range tb.Xs() {
			if v := tb.Get(x, "makespan(s)"); math.IsNaN(v) || v <= 0 {
				t.Errorf("%s: makespan at %v = %v", p, x, v)
			}
		}
	}
}

func TestSensitivityDefaults(t *testing.T) {
	if len(SensitivityValues(ParamDelta)) == 0 {
		t.Error("no defaults for delta")
	}
	if SensitivityValues(SensitivityParam("nope")) != nil {
		t.Error("unknown param should return nil")
	}
	if _, err := Sensitivity(SensitivityParam("nope"), nil, Real, 10, tinyOptions()); err == nil {
		t.Error("unknown param accepted")
	}
}

func TestFairnessTable(t *testing.T) {
	tb, err := Fairness(Real, 24, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Xs()) != 3 {
		t.Fatalf("rows = %v", tb.Xs())
	}
	for _, m := range PreemptorNames() {
		jain := tb.Get(1, m)
		mean := tb.Get(2, m)
		max := tb.Get(3, m)
		if math.IsNaN(jain) || jain <= 0 || jain > 1+1e-9 {
			t.Errorf("%s jain = %v", m, jain)
		}
		if mean < 1-1e-9 || max < mean-1e-9 {
			t.Errorf("%s slowdowns: mean %v max %v", m, mean, max)
		}
	}
}

// markerObserver records the run labels the sweep announces and counts
// the events it receives, proving every cell's simulation is observed.
type markerObserver struct {
	labels []string
	starts int
}

func (m *markerObserver) BeginRun(label string) { m.labels = append(m.labels, label) }
func (m *markerObserver) Observe(ev sim.Event) {
	if ev.Kind == sim.TaskStarted {
		m.starts++
	}
}

func TestSweepObserverThreading(t *testing.T) {
	o := tinyOptions()
	mo := &markerObserver{}
	o.Observer = mo
	if _, err := Fig5(Real, o); err != nil {
		t.Fatal(err)
	}
	wantRuns := len(o.JobCounts) * len(SchedulerNames())
	if len(mo.labels) != wantRuns {
		t.Fatalf("got %d run markers, want %d: %v", len(mo.labels), wantRuns, mo.labels)
	}
	if mo.labels[0] != "fig5-real-cluster-DSP-h24" {
		t.Errorf("unexpected first label %q", mo.labels[0])
	}
	if mo.starts == 0 {
		t.Error("observer attached to sweep saw no task events")
	}
	// An observer without BeginRun still works (plain sim.Observer).
	o.Observer = sim.Observers{}
	if _, err := Fig5(Real, o); err != nil {
		t.Fatal(err)
	}
}
