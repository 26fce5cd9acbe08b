package sim

import (
	"sort"

	"dsp/internal/cluster"
	"dsp/internal/eventq"
	"dsp/internal/units"
)

// Speculative execution: every Interval the engine scans running tasks
// for stragglers — tasks whose live completion estimate is far worse
// than a fresh copy (restarted from the last checkpoint) would manage on
// the best idle node — and launches backup copies on idle slots, first
// copy wins. Candidates are prioritized by the DSP dependency score over
// their unfinished descendants, so the backups that unlock the most
// downstream work launch first: dependency awareness makes speculation
// cheaper to target (per Graphene and the paper's Section VI).

// Speculation configures the backup-copy policy. The zero value of each
// field selects the documented default.
type Speculation struct {
	// SpeedupThreshold is how many times faster a fresh copy must
	// promise to be before a backup launches (default 1.7; Hadoop-style
	// speculation uses comparable slack to avoid thrashing).
	SpeedupThreshold float64
	// MinRemaining skips tasks about to finish anyway (default 5s).
	MinRemaining units.Time
	// Gamma is the level coefficient of the dependency score used to
	// rank candidates (default 0.5, the paper's γ).
	Gamma float64
	// MaxBackups caps concurrently live backup copies (0 = limited only
	// by idle slots).
	MaxBackups int
	// Interval is how often the scan runs (0 = every Epoch).
	Interval units.Time
}

func (s *Speculation) fillDefaults(epoch units.Time) {
	if s.SpeedupThreshold <= 0 {
		s.SpeedupThreshold = 1.7
	}
	if s.MinRemaining <= 0 {
		s.MinRemaining = 5 * units.Second
	}
	if s.Gamma <= 0 {
		s.Gamma = 0.5
	}
	if s.Interval <= 0 {
		s.Interval = epoch
	}
}

// backupRun is one live speculative copy. It occupies a slot on node but
// is not a TaskState: it has its own progress (from the primary's last
// checkpoint at launch) and its own completion event.
type backupRun struct {
	task *TaskState
	node cluster.NodeID
	// base is the checkpointed MI inherited at launch; done is MI this
	// copy has banked since (re-pacing on straggler windows).
	base, done float64
	// effStart is when useful work (re)started after the resume penalty.
	effStart units.Time
	// launched is the slot-occupancy start, for waste accounting.
	launched units.Time
	ev       eventq.Handle
	hasEv    bool
}

// specTick scans for stragglers and launches backups on idle slots.
func (e *Engine) specTick(now units.Time) {
	sp := e.cfg.Speculation
	if e.jobsRemaining <= 0 && !e.streamingLive() {
		return
	}
	defer e.q.AfterTag(sp.Interval, eventq.Tag{Kind: evSpecTick}, eventq.Func(e.specTick))

	// Idle capacity: free slots on live, non-blacklisted nodes.
	freeSlots := make([]int, len(e.nodes))
	bestSpeed := make([]float64, len(e.nodes))
	anyFree := false
	for k, ns := range e.nodes {
		if ns.down || e.isBlacklisted(cluster.NodeID(k), now) {
			continue
		}
		free := ns.node.Slots - len(ns.running) - len(ns.spec)
		if free <= 0 {
			continue
		}
		freeSlots[k] = free
		bestSpeed[k] = e.speedOf(cluster.NodeID(k))
		anyFree = true
	}
	if !anyFree {
		return
	}

	type candidate struct {
		t     *TaskState
		score float64
	}
	var cands []candidate
	scores := map[*TaskState]float64{}
	pen := e.cfg.Checkpoint.ResumePenalty()
	for k, ns := range e.nodes {
		if ns.down {
			continue
		}
		speed := e.speedOf(cluster.NodeID(k))
		for _, t := range ns.running {
			if t.blocked || t.backup != nil || t.Job.failed {
				continue
			}
			curFin := t.LiveRemainingTime(now, speed)
			if curFin < sp.MinRemaining {
				continue
			}
			// Best finish a fresh copy could promise anywhere idle.
			best := units.Forever
			for alt := range e.nodes {
				if freeSlots[alt] <= 0 || alt == k {
					continue
				}
				if fin := pen + t.RemainingTime(bestSpeed[alt]); fin < best {
					best = fin
				}
			}
			if best == units.Forever {
				continue
			}
			if float64(curFin) <= sp.SpeedupThreshold*float64(best) {
				continue
			}
			cands = append(cands, candidate{t: t, score: e.liveDepScore(t, sp.Gamma, scores)})
		}
	}
	if len(cands) == 0 {
		return
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		return lessTaskState(cands[a].t, cands[b].t)
	})

	for _, c := range cands {
		if sp.MaxBackups > 0 && e.activeBackups >= sp.MaxBackups {
			return
		}
		// Fastest idle node that is not the primary's.
		best, bestK := 0.0, -1
		for alt := range e.nodes {
			if freeSlots[alt] <= 0 || cluster.NodeID(alt) == c.t.Node {
				continue
			}
			if bestSpeed[alt] > best {
				best, bestK = bestSpeed[alt], alt
			}
		}
		if bestK < 0 {
			return
		}
		freeSlots[bestK]--
		e.launchBackup(c.t, cluster.NodeID(bestK), now)
	}
}

// liveDepScore is the DSP dependency score restricted to unfinished
// work: 1 + Σ over non-Done children of (γ+1)·score(child). It measures
// how much downstream execution this task's completion unlocks now.
func (e *Engine) liveDepScore(t *TaskState, gamma float64, memo map[*TaskState]float64) float64 {
	if s, ok := memo[t]; ok {
		return s
	}
	memo[t] = 1 // cycle guard; DAGs are acyclic so this never surfaces
	s := 1.0
	for _, c := range t.Job.Dag.Children(t.Task.ID) {
		cs := t.Job.Tasks[c]
		if cs.Phase == Done {
			continue
		}
		s += (gamma + 1) * e.liveDepScore(cs, gamma, memo)
	}
	memo[t] = s
	return s
}

// launchBackup starts a speculative copy of t on node k, resuming from
// the primary's last checkpoint.
func (e *Engine) launchBackup(t *TaskState, k cluster.NodeID, now units.Time) {
	ns := e.nodes[k]
	br := &backupRun{task: t, node: k, base: t.doneMI, launched: now}
	pen := e.cfg.Checkpoint.ResumePenalty()
	br.effStart = now + pen
	speed := e.speedOf(k)
	fin := br.effStart + remainingTimeMI(t.Task.Size-br.base, speed)
	e.armBackupComplete(br, fin)
	ns.spec = append(ns.spec, br)
	t.backup = br
	e.activeBackups++
	e.metrics.Speculations++
	if o := e.cfg.Observer; o != nil {
		o.Observe(Event{Kind: SpeculationLaunched, At: now, Task: t, Node: t.Node, Peer: k})
	}
}

// armBackupComplete schedules a speculative copy's completion at
// absolute time at. Shared by launchBackup, straggler re-pacing and
// snapshot restore.
func (e *Engine) armBackupComplete(br *backupRun, at units.Time) {
	br.ev = e.q.AtTag(at, taskTag(evBackupComplete, br.task), eventq.Func(func(at units.Time) {
		e.backupComplete(br, at)
	}))
	br.hasEv = true
}

// backupComplete is first-copy-wins in the backup's favour: the primary
// attempt — wherever it is in its lifecycle — is withdrawn and its burst
// written off as speculative waste, then the task completes on the
// backup's node.
func (e *Engine) backupComplete(br *backupRun, now units.Time) {
	br.hasEv = false
	t := br.task
	e.removeBackup(br)
	t.backup = nil
	loser := t.Node
	switch t.Phase {
	case Running:
		ns := e.nodes[t.Node]
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
			e.metrics.BlockedSlotTime += now - t.effStart
			e.emitSpan(t, SpanBlocked, CauseNone, t.Node, t.spanStart, now)
			t.spanStart = now
			t.blocked = false
		} else {
			if now > t.effStart {
				e.metrics.SpeculativeWaste += now - t.effStart
			}
			// The primary's burst is written off as waste for slot
			// accounting, but the wall-clock is covered by the winning
			// copy: the stretch counts as service in the task's timeline.
			e.closeBurstSpans(t, t.Node, now, CauseNone, 0)
		}
	case Queued, Suspended, Pending:
		e.closeWaitSpan(t, now)
		if t.Phase == Queued || t.Phase == Suspended {
			e.dequeue(t.Node, t)
		}
	case Backoff:
		if t.hasRetryEv {
			e.q.Cancel(t.retryEv)
			t.hasRetryEv = false
		}
		e.closeWaitSpan(t, now)
	}
	e.metrics.SpeculationWins++
	if o := e.cfg.Observer; o != nil {
		o.Observe(Event{Kind: SpeculationWon, At: now, Task: t, Node: br.node, Peer: loser})
	}
	t.Node = br.node
	e.finish(br.node, t, now)
	if int(loser) >= 0 && loser != br.node {
		e.tryFill(loser, now)
	}
}

// cancelBackup abandons a speculative copy (primary finished first, the
// backup's node crashed, or the job failed) and frees its slot.
func (e *Engine) cancelBackup(br *backupRun, now units.Time) {
	if br.hasEv {
		e.q.Cancel(br.ev)
		br.hasEv = false
	}
	e.removeBackup(br)
	br.task.backup = nil
	e.metrics.SpeculationCancels++
	if now > br.launched {
		e.metrics.SpeculativeWaste += now - br.launched
	}
	if o := e.cfg.Observer; o != nil {
		o.Observe(Event{Kind: SpeculationCancelled, At: now, Task: br.task, Node: br.node})
	}
	if !e.nodes[br.node].down {
		e.tryFill(br.node, now)
	}
}

// removeBackup detaches br from its node's slot accounting (idempotent).
func (e *Engine) removeBackup(br *backupRun) {
	ns := e.nodes[br.node]
	for i, b := range ns.spec {
		if b == br {
			ns.spec = append(ns.spec[:i], ns.spec[i+1:]...)
			e.activeBackups--
			return
		}
	}
}

// remainingTimeMI is RemainingTime for a raw MI amount.
func remainingTimeMI(mi, speedMIPS float64) units.Time {
	if mi < 0 {
		mi = 0
	}
	if speedMIPS <= 0 {
		return units.Forever
	}
	return units.FromSeconds(mi / speedMIPS)
}
