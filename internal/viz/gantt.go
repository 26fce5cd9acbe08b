// Package viz renders simulation timelines as SVG Gantt charts. A
// Recorder (a sim.Observer) captures task execution spans during a run;
// Gantt lays them out with one band per node, lanes per concurrent slot,
// and one color per job — making schedules, preemptions (split spans)
// and idle gaps visible at a glance. GanttWithAttribution additionally
// overlays each attributed job's realized critical path, outlining the
// path's execution spans in the color of the step's dominant blame cause.
package viz

import (
	"fmt"
	"io"
	"sort"

	"dsp/internal/attrib"
	"dsp/internal/cluster"
	"dsp/internal/dag"
	"dsp/internal/sim"
	"dsp/internal/units"
)

// Span is one contiguous occupancy of a slot by a task.
type Span struct {
	Task  dag.Key
	Node  cluster.NodeID
	Start units.Time
	End   units.Time
	// Preempted marks spans that ended in a suspension rather than
	// completion (drawn with a hatched border).
	Preempted bool
}

// Recorder collects spans; attach it via sim.Config.Observer.
type Recorder struct {
	Spans []Span
	// open maps a task to the index of its currently open span (indices,
	// not pointers: append may reallocate Spans).
	open map[dag.Key]int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{open: make(map[dag.Key]int)}
}

// Observe implements sim.Observer: a start opens a span; completion
// closes it, and a preemption or crash eviction cuts it short.
func (r *Recorder) Observe(ev sim.Event) {
	switch ev.Kind {
	case sim.TaskStarted:
		r.Spans = append(r.Spans, Span{Task: ev.Task.Key(), Node: ev.Node, Start: ev.At, End: -1})
		r.open[ev.Task.Key()] = len(r.Spans) - 1
	case sim.TaskCompleted, sim.TaskPreempted, sim.TaskEvicted:
		if i, ok := r.open[ev.Task.Key()]; ok {
			r.Spans[i].End = ev.At
			r.Spans[i].Preempted = ev.Kind != sim.TaskCompleted
			delete(r.open, ev.Task.Key())
		}
	}
}

// palette holds distinguishable fill colors, cycled by job ID.
var palette = []string{
	"#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
	"#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
}

// causeColors maps each blame cause to its overlay stroke color.
var causeColors = [attrib.NumCauses]string{
	attrib.CrossJobWait: "#7f7f7f",
	attrib.Dispatch:     "#1f77b4",
	attrib.QueueWait:    "#17becf",
	attrib.PreemptWait:  "#ff7f0e",
	attrib.Service:      "#2ca02c",
	attrib.Overhead:     "#bcbd22",
	attrib.PreemptLoss:  "#d62728",
	attrib.FaultLoss:    "#8c564b",
	attrib.Backoff:      "#e377c2",
	attrib.Blocked:      "#9467bd",
	attrib.Unattributed: "#c7c7c7",
}

// CauseColor returns the overlay color for a blame cause.
func CauseColor(c attrib.Cause) string {
	if c >= 0 && c < attrib.NumCauses {
		return causeColors[c]
	}
	return "#000000"
}

const (
	laneH      = 14
	nodeGap    = 8
	leftPad    = 70
	topPad     = 24
	chartWidth = 1000
	legendW    = 150
)

// layout is the resolved geometry of a chart: lane assignment per span
// and the time-to-pixel mapping, shared by the base render and the
// attribution overlay.
type layout struct {
	spans     []Span
	laneOf    []int
	yOff      map[cluster.NodeID]int
	nodeLanes map[cluster.NodeID]int
	maxNode   cluster.NodeID
	tMax      units.Time
	xScale    float64
	height    int
	// byTask indexes l.spans by task key, in start order.
	byTask map[dag.Key][]int
}

// buildLayout sorts spans, assigns lanes greedily per node and computes
// the coordinate system. Returns nil when nothing was recorded.
func (r *Recorder) buildLayout() *layout {
	if len(r.Spans) == 0 {
		return nil
	}
	l := &layout{
		spans:     append([]Span(nil), r.Spans...),
		yOff:      make(map[cluster.NodeID]int),
		nodeLanes: make(map[cluster.NodeID]int),
		byTask:    make(map[dag.Key][]int),
	}
	for _, s := range l.spans {
		if s.End > l.tMax {
			l.tMax = s.End
		}
		if s.Start > l.tMax {
			l.tMax = s.Start
		}
		if s.Node > l.maxNode {
			l.maxNode = s.Node
		}
	}
	for i := range l.spans {
		if l.spans[i].End < 0 {
			l.spans[i].End = l.tMax
		}
	}
	sort.Slice(l.spans, func(a, b int) bool {
		if l.spans[a].Node != l.spans[b].Node {
			return l.spans[a].Node < l.spans[b].Node
		}
		if l.spans[a].Start != l.spans[b].Start {
			return l.spans[a].Start < l.spans[b].Start
		}
		return l.spans[a].End < l.spans[b].End
	})

	// Greedy interval lane assignment per node.
	type laneEnd struct{ ends []units.Time }
	lanes := make(map[cluster.NodeID]*laneEnd)
	l.laneOf = make([]int, len(l.spans))
	for i, s := range l.spans {
		le := lanes[s.Node]
		if le == nil {
			le = &laneEnd{}
			lanes[s.Node] = le
		}
		placed := -1
		for li, end := range le.ends {
			if end <= s.Start {
				placed = li
				break
			}
		}
		if placed == -1 {
			le.ends = append(le.ends, s.End)
			placed = len(le.ends) - 1
		} else {
			le.ends[placed] = s.End
		}
		l.laneOf[i] = placed
		if placed+1 > l.nodeLanes[s.Node] {
			l.nodeLanes[s.Node] = placed + 1
		}
		l.byTask[s.Task] = append(l.byTask[s.Task], i)
	}

	// Vertical layout: cumulative lane offsets per node.
	y := topPad
	for n := cluster.NodeID(0); n <= l.maxNode; n++ {
		l.yOff[n] = y
		ln := l.nodeLanes[n]
		if ln == 0 {
			ln = 1
		}
		y += ln*laneH + nodeGap
	}
	l.height = y + 10
	l.xScale = float64(chartWidth-leftPad-10) / l.tMax.Seconds()
	if l.tMax == 0 {
		l.xScale = 1
	}
	return l
}

// x maps a simulation time to a pixel column.
func (l *layout) x(t units.Time) int {
	return leftPad + int(t.Seconds()*l.xScale)
}

// spanY returns span i's top pixel row.
func (l *layout) spanY(i int) int {
	return l.yOff[l.spans[i].Node] + l.laneOf[i]*laneH
}

// Gantt renders the recorded spans as an SVG document. Spans still open
// (End < 0) are clipped to the latest observed time.
func (r *Recorder) Gantt(w io.Writer) error {
	return r.render(w, nil)
}

// GanttWithAttribution renders the Gantt chart with each attributed
// job's realized critical path overlaid: the path's execution spans,
// clipped to their path windows, are outlined in the color of the step's
// dominant blame cause, consecutive steps are connected at their window
// boundaries, and a legend maps colors back to causes.
func (r *Recorder) GanttWithAttribution(w io.Writer, jobs []attrib.JobAttribution) error {
	return r.render(w, jobs)
}

func (r *Recorder) render(w io.Writer, jobs []attrib.JobAttribution) error {
	l := r.buildLayout()
	if l == nil {
		_, err := fmt.Fprint(w, `<svg xmlns="http://www.w3.org/2000/svg" width="200" height="40"><text x="10" y="25">no spans recorded</text></svg>`)
		return err
	}
	width := chartWidth
	if len(jobs) > 0 {
		width += legendW
	}
	var werr error
	p := func(format string, args ...any) {
		if werr == nil {
			_, werr = fmt.Fprintf(w, format, args...)
		}
	}
	p(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="10">`+"\n", width, l.height)
	p(`<text x="%d" y="14">Gantt: %d spans, %v total</text>`+"\n", leftPad, len(l.spans), l.tMax)
	for n := cluster.NodeID(0); n <= l.maxNode; n++ {
		p(`<text x="4" y="%d">node%d</text>`+"\n", l.yOff[n]+laneH-3, n)
	}
	for i, s := range l.spans {
		x := l.x(s.Start)
		wpx := int((s.End - s.Start).Seconds() * l.xScale)
		if wpx < 1 {
			wpx = 1
		}
		fill := palette[int(s.Task.Job)%len(palette)]
		stroke := "none"
		if s.Preempted {
			stroke = "#d62728"
		}
		p(`<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="%s"><title>%v [%v,%v]</title></rect>`+"\n",
			x, l.spanY(i), wpx, laneH-2, fill, stroke, s.Task, s.Start, s.End)
	}
	if len(jobs) > 0 {
		r.renderOverlay(p, l, jobs)
		r.renderLegend(p, jobs)
	}
	p("</svg>\n")
	return werr
}

// renderOverlay draws the critical-path outlines and step connectors for
// every attributed job.
func (r *Recorder) renderOverlay(p func(string, ...any), l *layout, jobs []attrib.JobAttribution) {
	p(`<g fill="none" stroke-width="2">` + "\n")
	for _, a := range jobs {
		// prevX/prevY track the previous step's last outlined rect so the
		// path reads as one connected chain across nodes.
		prevX, prevY := -1, -1
		for _, st := range a.Path {
			color := CauseColor(st.Blame.Dominant())
			key := dag.Key{Job: a.Job, Task: st.Task}
			firstX, firstY := -1, -1
			lastX, lastY := -1, -1
			for _, i := range l.byTask[key] {
				s := l.spans[i]
				lo, hi := s.Start, s.End
				if lo < st.Start {
					lo = st.Start
				}
				if hi > st.End {
					hi = st.End
				}
				if hi <= lo {
					continue
				}
				x := l.x(lo)
				wpx := int((hi - lo).Seconds() * l.xScale)
				if wpx < 2 {
					wpx = 2
				}
				y := l.spanY(i)
				p(`<rect x="%d" y="%d" width="%d" height="%d" stroke="%s"><title>j%d path: T%d %s [%v,%v)</title></rect>`+"\n",
					x, y, wpx, laneH-2, color, int(a.Job), int(st.Task), st.Blame.Dominant(), lo, hi)
				if firstX < 0 {
					firstX, firstY = x, y+laneH/2
				}
				lastX, lastY = x+wpx, y+laneH/2
			}
			if firstX >= 0 && prevX >= 0 {
				p(`<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333" stroke-width="1" stroke-dasharray="3,2"/>`+"\n",
					prevX, prevY, firstX, firstY)
			}
			if lastX >= 0 {
				prevX, prevY = lastX, lastY
			}
		}
	}
	p("</g>\n")
}

// renderLegend lists the causes that actually appear in the overlay.
func (r *Recorder) renderLegend(p func(string, ...any), jobs []attrib.JobAttribution) {
	used := [attrib.NumCauses]bool{}
	for _, a := range jobs {
		for _, st := range a.Path {
			used[st.Blame.Dominant()] = true
		}
	}
	x := chartWidth + 8
	y := topPad
	p(`<text x="%d" y="%d" font-weight="bold">critical-path blame</text>`+"\n", x, y-8)
	for _, c := range attrib.Causes() {
		if !used[c] {
			continue
		}
		p(`<rect x="%d" y="%d" width="10" height="10" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			x, y, CauseColor(c))
		p(`<text x="%d" y="%d">%s</text>`+"\n", x+15, y+9, c.String())
		y += 16
	}
}
