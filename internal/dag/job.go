package dag

import (
	"errors"
	"fmt"
	"sort"
)

// ErrCycle is returned when the dependency graph contains a cycle.
var ErrCycle = errors.New("dag: dependency graph contains a cycle")

// Job is a set of tasks plus dependency edges between them. An edge
// parent -> child means child cannot start until parent has finished
// (parent is a "precedent" task, child a "dependent" task in the paper's
// terminology).
type Job struct {
	ID    JobID
	Tasks []*Task

	// Deadline is the job completion deadline t_i^d in seconds from the
	// job's submission. Zero means no deadline.
	Deadline float64

	// Production marks the job as a production job (vs research);
	// Natjam's eviction policy distinguishes the two classes.
	Production bool

	children [][]TaskID
	parents  [][]TaskID
	numEdges int

	// Caches invalidated by AddDep.
	topo   []TaskID
	levels []int
	desc   []int
}

// NewJob creates a job with n tasks, all initially independent. Task sizes
// and demands start at zero and should be filled in by the caller.
func NewJob(id JobID, n int) *Job {
	j := &Job{
		ID:       id,
		Tasks:    make([]*Task, n),
		children: make([][]TaskID, n),
		parents:  make([][]TaskID, n),
	}
	for i := 0; i < n; i++ {
		j.Tasks[i] = &Task{ID: TaskID(i), Job: id, Preferred: -1}
	}
	return j
}

// Len returns the number of tasks m in the job.
func (j *Job) Len() int { return len(j.Tasks) }

// NumEdges returns the number of dependency edges.
func (j *Job) NumEdges() int { return j.numEdges }

// Task returns the task with the given ID.
func (j *Job) Task(id TaskID) *Task { return j.Tasks[id] }

// AddDep records that child depends on parent (parent must finish before
// child starts). It rejects out-of-range IDs, self-loops and duplicate
// edges. Cycle detection is deferred to Validate / TopoOrder.
func (j *Job) AddDep(parent, child TaskID) error {
	n := TaskID(len(j.Tasks))
	if parent < 0 || parent >= n || child < 0 || child >= n {
		return fmt.Errorf("dag: edge %d->%d out of range [0,%d)", parent, child, n)
	}
	if parent == child {
		return fmt.Errorf("dag: self-dependency on task %d", parent)
	}
	for _, c := range j.children[parent] {
		if c == child {
			return fmt.Errorf("dag: duplicate edge %d->%d", parent, child)
		}
	}
	j.children[parent] = append(j.children[parent], child)
	j.parents[child] = append(j.parents[child], parent)
	j.numEdges++
	j.invalidate()
	return nil
}

// MustDep is AddDep but panics on error; convenient in tests and examples.
func (j *Job) MustDep(parent, child TaskID) {
	if err := j.AddDep(parent, child); err != nil {
		panic(err)
	}
}

func (j *Job) invalidate() {
	j.topo = nil
	j.levels = nil
	j.desc = nil
}

// Children returns the IDs of tasks that directly depend on t.
func (j *Job) Children(t TaskID) []TaskID { return j.children[t] }

// Parents returns the IDs of tasks t directly depends on.
func (j *Job) Parents(t TaskID) []TaskID { return j.parents[t] }

// OutDegree returns the number of direct dependents of t.
func (j *Job) OutDegree(t TaskID) int { return len(j.children[t]) }

// InDegree returns the number of direct precedents of t.
func (j *Job) InDegree(t TaskID) int { return len(j.parents[t]) }

// Roots returns the tasks with no precedents, in ID order.
func (j *Job) Roots() []TaskID {
	var out []TaskID
	for i := range j.Tasks {
		if len(j.parents[i]) == 0 {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// Leaves returns the tasks with no dependents, in ID order.
func (j *Job) Leaves() []TaskID {
	var out []TaskID
	for i := range j.Tasks {
		if len(j.children[i]) == 0 {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// Validate checks the dependency graph is acyclic.
func (j *Job) Validate() error {
	_, err := j.TopoOrder()
	return err
}

// CheckStructure validates the job's static structure beyond the
// acyclicity Validate covers: every task slot holds a task whose ID
// matches its position (duplicate or misplaced IDs corrupt ID-indexed
// lookups), every edge endpoint is in range with a mirrored entry in the
// opposite adjacency list (a dangling edge would panic or silently drop
// a dependency), and the graph is acyclic. Errors name the offending
// job and task or edge.
func (j *Job) CheckStructure() error {
	n := len(j.Tasks)
	if len(j.children) != n || len(j.parents) != n {
		return fmt.Errorf("dag: job %d: adjacency lists sized %d/%d for %d tasks",
			j.ID, len(j.children), len(j.parents), n)
	}
	for i, t := range j.Tasks {
		if t == nil {
			return fmt.Errorf("dag: job %d: task slot %d is nil", j.ID, i)
		}
		if int(t.ID) != i {
			return fmt.Errorf("dag: job %d: task slot %d holds task ID %d (duplicate or misplaced task ID)",
				j.ID, i, t.ID)
		}
	}
	mirrored := func(list []TaskID, want TaskID) bool {
		for _, id := range list {
			if id == want {
				return true
			}
		}
		return false
	}
	for p := range j.children {
		for _, c := range j.children[p] {
			if int(c) < 0 || int(c) >= n {
				return fmt.Errorf("dag: job %d: edge %d->%d dangles (task %d outside [0,%d))",
					j.ID, p, c, c, n)
			}
			if !mirrored(j.parents[c], TaskID(p)) {
				return fmt.Errorf("dag: job %d: edge %d->%d missing from task %d's parent list",
					j.ID, p, c, c)
			}
		}
	}
	for c := range j.parents {
		for _, p := range j.parents[c] {
			if int(p) < 0 || int(p) >= n {
				return fmt.Errorf("dag: job %d: edge %d->%d dangles (task %d outside [0,%d))",
					j.ID, p, c, p, n)
			}
			if !mirrored(j.children[p], TaskID(c)) {
				return fmt.Errorf("dag: job %d: edge %d->%d missing from task %d's child list",
					j.ID, p, c, p)
			}
		}
	}
	if err := j.Validate(); err != nil {
		return fmt.Errorf("dag: job %d: %w", j.ID, err)
	}
	return nil
}

// TopoOrder returns a topological order of the tasks (parents before
// children; ties broken by ascending task ID so the order is
// deterministic). It returns ErrCycle if the graph has a cycle.
func (j *Job) TopoOrder() ([]TaskID, error) {
	if j.topo != nil {
		return j.topo, nil
	}
	n := len(j.Tasks)
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = len(j.parents[i])
	}
	// Min-ID frontier for determinism.
	frontier := make([]TaskID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			frontier = append(frontier, TaskID(i))
		}
	}
	order := make([]TaskID, 0, n)
	for len(frontier) > 0 {
		sort.Slice(frontier, func(a, b int) bool { return frontier[a] < frontier[b] })
		t := frontier[0]
		frontier = frontier[1:]
		order = append(order, t)
		for _, c := range j.children[t] {
			indeg[c]--
			if indeg[c] == 0 {
				frontier = append(frontier, c)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	j.topo = order
	return order, nil
}

// DependsOn reports whether task a transitively depends on task b, i.e.
// whether there is a directed path b -> ... -> a. Condition C2 of the DSP
// preemption procedure requires that a waiting task not depend on the
// running task it would preempt.
func (j *Job) DependsOn(a, b TaskID) bool {
	if a == b {
		return false
	}
	// BFS from b along children.
	seen := make([]bool, len(j.Tasks))
	queue := []TaskID{b}
	seen[b] = true
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		for _, c := range j.children[t] {
			if c == a {
				return true
			}
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	return false
}

// Clone returns a deep copy of the job (task structs are copied).
func (j *Job) Clone() *Job {
	c := NewJob(j.ID, len(j.Tasks))
	c.Deadline = j.Deadline
	c.Production = j.Production
	for i, t := range j.Tasks {
		tc := *t
		c.Tasks[i] = &tc
	}
	for p := range j.children {
		for _, ch := range j.children[p] {
			c.children[p] = append(c.children[p], ch)
			c.parents[ch] = append(c.parents[ch], TaskID(p))
			c.numEdges++
		}
	}
	return c
}

// TotalSize returns the sum of task sizes (MI) in the job.
func (j *Job) TotalSize() float64 {
	var s float64
	for _, t := range j.Tasks {
		s += t.Size
	}
	return s
}
