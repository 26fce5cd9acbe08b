package baselines

import (
	"slices"
	"sync"

	"dsp/internal/cluster"
	"dsp/internal/dag"
	"dsp/internal/sim"
	"dsp/internal/units"
)

// cand is one task with its policy key computed once per node per epoch.
// Candidates order ascending by (p, a, b) and then by lessTask's
// (job, task) identity, a total order, so a heap pops exactly the
// sequence a full sort would produce. Policies that rank a key
// descending store it negated: negation reverses every comparison
// exactly for floats and for the non-extreme integers used here. A cand
// holds no pointers, so moving it through the heap costs no GC write
// barriers; i locates the task in its node's running or waiting slice.
type cand struct {
	p    float64
	a, b units.Time
	rem  units.Time // live remaining time on the node
	job  dag.JobID
	task dag.TaskID
	i    int
}

// keyed starts the candidate for t, the i-th task of its node slice.
func keyed(t *sim.TaskState, i int, rem units.Time) cand {
	return cand{rem: rem, job: t.Task.Job, task: t.Task.ID, i: i}
}

func (x *cand) less(y *cand) bool {
	switch {
	case x.p != y.p:
		return x.p < y.p
	case x.a != y.a:
		return x.a < y.a
	case x.b != y.b:
		return x.b < y.b
	case x.job != y.job:
		return x.job < y.job
	}
	return x.task < y.task
}

func compareCand(x, y cand) int {
	if x.less(&y) {
		return -1
	}
	if y.less(&x) {
		return 1
	}
	return 0
}

// matchRule is the preemption test a policy applies to each
// (starter, victim) pair the walk considers.
type matchRule uint8

const (
	// anyStarter pairs every starter with the next victim (Natjam).
	anyStarter matchRule = iota
	// shorterStarter pairs a starter only when its live remaining time is
	// strictly shorter than the victim's; a failing starter is skipped
	// and the walk goes on (SRPT).
	shorterStarter
	// shorterStarterOrStop is shorterStarter but ends the node's walk at
	// the first failing starter, for starters ordered by ascending
	// remaining time (Amoeba).
	shorterStarterOrStop
)

// nodeKeys appends one node's victim candidates and then its starter
// candidates to buf, returning the grown buffer and the victim count.
type nodeKeys func(buf []cand, speed float64, running, waiting []*sim.TaskState) ([]cand, int)

// candPool recycles the per-epoch candidate buffer across epochs (and
// across the concurrent cells of a sweep).
var candPool = sync.Pool{New: func() any { return new([]cand) }}

// matchEpoch is the node loop shared by the baseline preemptors: every
// node with both waiting and running tasks is keyed once and matched by
// matchNode under rule.
func matchEpoch(v *sim.View, rule matchRule, keys nodeKeys) []sim.Action {
	bp := candPool.Get().(*[]cand)
	buf := *bp
	var out []sim.Action
	for k := 0; k < v.Cluster().Len(); k++ {
		node := cluster.NodeID(k)
		running, waiting := v.Running(node), v.Queue(node)
		if len(waiting) == 0 || len(running) == 0 {
			continue
		}
		var nv int
		buf, nv = keys(buf[:0], v.Speed(node), running, waiting)
		out = matchNode(out, node, running, waiting, buf[:nv:nv], buf[nv:], rule)
	}
	*bp = buf[:0]
	candPool.Put(bp)
	return out
}

// matchNode appends node's preemptions to out: victims are sorted by
// their keys, starters are popped from a min-heap in key order, and each
// popped starter that passes rule against the next victim evicts it.
// Under a shorter-starter rule a starter whose remaining time is not
// below the longest victim's can never pass, so it is dropped before the
// heap is built. Both candidate slices are reordered in place.
func matchNode(out []sim.Action, node cluster.NodeID, running, waiting []*sim.TaskState, victims, starters []cand, rule matchRule) []sim.Action {
	if len(victims) == 0 || len(starters) == 0 {
		return out
	}
	if rule != anyStarter {
		longest := victims[0].rem
		for _, v := range victims[1:] {
			longest = max(longest, v.rem)
		}
		kept := starters[:0]
		for _, s := range starters {
			if s.rem < longest {
				kept = append(kept, s)
			}
		}
		starters = kept
	}
	slices.SortFunc(victims, compareCand)
	h := candHeap(starters)
	h.init()
	for vi := 0; vi < len(victims) && len(h) > 0; {
		s := h.pop()
		if rule == anyStarter || s.rem < victims[vi].rem {
			out = append(out, sim.Action{Node: node, Victim: running[victims[vi].i], Starter: waiting[s.i]})
			vi++
		} else if rule == shorterStarterOrStop {
			break
		}
	}
	return out
}

// candHeap is a binary min-heap of candidates ordered by cand.less.
type candHeap []cand

func (h candHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// pop removes and returns the minimum; the receiver shrinks by one.
func (h *candHeap) pop() cand {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
	return top
}

func (h candHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r].less(&h[l]) {
			m = r
		}
		if !h[m].less(&h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
