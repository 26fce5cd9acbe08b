package sched

import (
	"testing"

	"dsp/internal/cluster"
	"dsp/internal/dag"
	"dsp/internal/sim"
	"dsp/internal/trace"
	"dsp/internal/units"
)

func testCluster(n, slots int) *cluster.Cluster {
	c := &cluster.Cluster{Theta1: 0.5, Theta2: 0.5}
	for i := 0; i < n; i++ {
		c.Nodes = append(c.Nodes, &cluster.Node{
			ID: cluster.NodeID(i), Name: "t", SCPU: 1000, SMem: 1000, Slots: slots,
			Capacity: dag.Resources{CPU: float64(slots), Mem: 16, DiskMB: 1e6, Bandwidth: 1e3},
		})
	}
	return c
}

func sizedJob(id dag.JobID, sizes ...float64) *dag.Job {
	j := dag.NewJob(id, len(sizes))
	for i, s := range sizes {
		j.Task(dag.TaskID(i)).Size = s
	}
	return j
}

func oneJobWorkload(j *dag.Job) *trace.Workload {
	return &trace.Workload{
		ArrivalRate: 3,
		Jobs:        []*trace.Job{{Class: trace.Small, Arrival: 0, DAG: j}},
	}
}

func TestDepScores(t *testing.T) {
	// Chain a->b->c: score(c)=1, score(b)=1+1.5, score(a)=1+1.5*2.5=4.75
	// with γ=0.5.
	j := sizedJob(0, 1, 1, 1)
	j.MustDep(0, 1)
	j.MustDep(1, 2)
	s, err := DepScores(j, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if s[2] != 1 || s[1] != 2.5 || s[0] != 4.75 {
		t.Errorf("scores = %v, want [4.75 2.5 1]", s)
	}
}

func TestDepScoresPreferDeeperDescendants(t *testing.T) {
	// Star: one root, 4 leaves (4 descendants at depth 1) vs. tree: root
	// with 2 children each having 2 children (2+4 descendants over 2
	// levels). The paper's Figure 3 argues the deeper structure wins.
	star := sizedJob(0, 1, 1, 1, 1, 1)
	for i := 1; i <= 4; i++ {
		star.MustDep(0, dag.TaskID(i))
	}
	tree := sizedJob(1, 1, 1, 1, 1, 1, 1, 1)
	tree.MustDep(0, 1)
	tree.MustDep(0, 2)
	tree.MustDep(1, 3)
	tree.MustDep(1, 4)
	tree.MustDep(2, 5)
	tree.MustDep(2, 6)
	ss, _ := DepScores(star, 0.5)
	ts, _ := DepScores(tree, 0.5)
	if ts[0] <= ss[0] {
		t.Errorf("tree root score %v should exceed star root score %v", ts[0], ss[0])
	}
}

func TestDepScoresCyclicError(t *testing.T) {
	j := sizedJob(0, 1, 1)
	j.MustDep(0, 1)
	j.MustDep(1, 0)
	if _, err := DepScores(j, 0.5); err == nil {
		t.Error("cycle accepted")
	}
}

func TestListSerialChain(t *testing.T) {
	j := sizedJob(0, 2000, 1000) // 2 s + 1 s at 1000 MIPS
	j.MustDep(0, 1)
	d := NewDSP()
	d.Mode = ListOnly
	res, err := sim.Run(sim.Config{Cluster: testCluster(2, 1), Scheduler: d}, oneJobWorkload(j))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 3*units.Second {
		t.Errorf("makespan = %v, want 3s", res.Makespan)
	}
}

func TestListBalancesIndependentTasks(t *testing.T) {
	// Sizes 4,3,3 s on two single-slot nodes: optimum 6 s ({4},{3,3}).
	j := sizedJob(0, 4000, 3000, 3000)
	d := NewDSP()
	d.Mode = ListOnly
	res, err := sim.Run(sim.Config{Cluster: testCluster(2, 1), Scheduler: d}, oneJobWorkload(j))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 6*units.Second {
		t.Errorf("makespan = %v, want 6s", res.Makespan)
	}
}

func TestListPrefersFasterNode(t *testing.T) {
	c := testCluster(2, 1)
	c.Nodes[1].SCPU = 4000 // g = 2500 vs 1000
	c.Nodes[1].SMem = 1000
	j := sizedJob(0, 5000)
	d := NewDSP()
	d.Mode = ListOnly
	res, err := sim.Run(sim.Config{Cluster: c, Scheduler: d}, oneJobWorkload(j))
	if err != nil {
		t.Fatal(err)
	}
	want := units.FromSeconds(5000.0 / 2500.0)
	if res.Makespan != want {
		t.Errorf("makespan = %v, want %v (fast node)", res.Makespan, want)
	}
}

func TestListHandlesLargeWorkload(t *testing.T) {
	spec := trace.DefaultSpec(6, 3)
	spec.TaskScale = 0.05
	w, err := trace.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDSP()
	d.Mode = ListOnly
	res, err := sim.Run(sim.Config{Cluster: cluster.RealCluster(10), Scheduler: d}, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsCompleted != 6 {
		t.Errorf("completed %d jobs, want 6", res.JobsCompleted)
	}
	if res.Disorders != 0 {
		t.Errorf("disorders = %d, want 0 (engine respects deps)", res.Disorders)
	}
}

func TestILPSerialOneNode(t *testing.T) {
	j := sizedJob(0, 2000, 1000)
	d := NewDSP()
	d.Mode = ILPOnly
	res, err := sim.Run(sim.Config{Cluster: testCluster(1, 1), Scheduler: d}, oneJobWorkload(j))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 3*units.Second {
		t.Errorf("makespan = %v, want 3s (one machine serializes)", res.Makespan)
	}
}

func TestILPParallelTwoNodes(t *testing.T) {
	j := sizedJob(0, 2000, 2000)
	d := NewDSP()
	d.Mode = ILPOnly
	res, err := sim.Run(sim.Config{Cluster: testCluster(2, 1), Scheduler: d}, oneJobWorkload(j))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 2*units.Second {
		t.Errorf("makespan = %v, want 2s (ILP must parallelize)", res.Makespan)
	}
}

func TestILPOptimalPartition(t *testing.T) {
	// 4,3,3 on two machines: ILP optimum 6 s.
	j := sizedJob(0, 4000, 3000, 3000)
	d := NewDSP()
	d.Mode = ILPOnly
	res, err := sim.Run(sim.Config{Cluster: testCluster(2, 1), Scheduler: d}, oneJobWorkload(j))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 6*units.Second {
		t.Errorf("makespan = %v, want 6s", res.Makespan)
	}
}

func TestILPChainRespectsDependency(t *testing.T) {
	j := sizedJob(0, 1000, 1000, 1000)
	j.MustDep(0, 1)
	j.MustDep(1, 2)
	d := NewDSP()
	d.Mode = ILPOnly
	res, err := sim.Run(sim.Config{Cluster: testCluster(3, 1), Scheduler: d}, oneJobWorkload(j))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 3*units.Second {
		t.Errorf("makespan = %v, want 3s (chain)", res.Makespan)
	}
}

func TestAutoFallsBackToListOnScale(t *testing.T) {
	// 40 tasks exceed ILPTaskLimit: Auto must fall back to the list
	// engine and still schedule everything.
	sizes := make([]float64, 40)
	for i := range sizes {
		sizes[i] = 1000
	}
	j := sizedJob(0, sizes...)
	d := NewDSP() // Auto
	res, err := sim.Run(sim.Config{Cluster: testCluster(4, 2), Scheduler: d}, oneJobWorkload(j))
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted != 40 {
		t.Errorf("completed %d tasks, want 40", res.TasksCompleted)
	}
	// 40 × 1 s over 8 slots = 5 s lower bound.
	if res.Makespan != 5*units.Second {
		t.Errorf("makespan = %v, want 5s", res.Makespan)
	}
}

func TestAutoUsesILPWhenSmall(t *testing.T) {
	j := sizedJob(0, 4000, 3000, 3000)
	d := NewDSP() // Auto: 3 tasks ≤ 10, 2 nodes ≤ 4 → ILP
	res, err := sim.Run(sim.Config{Cluster: testCluster(2, 1), Scheduler: d}, oneJobWorkload(j))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 6*units.Second {
		t.Errorf("makespan = %v, want optimal 6s", res.Makespan)
	}
}

func TestEstimatePreemptions(t *testing.T) {
	if got := EstimatePreemptions(100, 100, 0); got != 0 {
		t.Errorf("zero load -> %d, want 0", got)
	}
	if got := EstimatePreemptions(100, 100, 1); got != 1 {
		t.Errorf("unit load -> %d, want 1", got)
	}
	if got := EstimatePreemptions(1000, 100, 1); got != 3 {
		t.Errorf("huge task -> %d, want 3", got)
	}
	if got := EstimatePreemptions(10, 100, 1); got != 0 {
		t.Errorf("tiny task -> %d, want 0", got)
	}
	if got := EstimatePreemptions(100, 0, 1); got != 0 {
		t.Errorf("degenerate mean -> %d, want 0", got)
	}
}

func TestSchedulerNames(t *testing.T) {
	d := NewDSP()
	if d.Name() != "DSP" {
		t.Errorf("Name = %q", d.Name())
	}
	d.Mode = ILPOnly
	if d.Name() != "DSP-ILP" {
		t.Errorf("Name = %q", d.Name())
	}
	d.Mode = ListOnly
	if d.Name() != "DSP-List" {
		t.Errorf("Name = %q", d.Name())
	}
}

func TestListDeterministic(t *testing.T) {
	spec := trace.DefaultSpec(4, 9)
	spec.TaskScale = 0.04
	run := func() *sim.Result {
		w, err := trace.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDSP()
		d.Mode = ListOnly
		res, err := sim.Run(sim.Config{Cluster: cluster.RealCluster(5), Scheduler: d}, w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.TasksCompleted != b.TasksCompleted ||
		a.AvgTaskWait != b.AvgTaskWait {
		t.Errorf("list scheduling not deterministic: %v vs %v", a, b)
	}
}
