package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"dsp/internal/attrib"
	"dsp/internal/cluster"
	"dsp/internal/prof"
	"dsp/internal/sim"
	"dsp/internal/units"
)

// TelemetrySchema versions the live-telemetry surface (/metrics metric
// set and /snapshot document layout). v2 added the scheduler-phase
// profile (dsp_phase_* metrics, the snapshot "phases" section) and this
// version marker itself.
const TelemetrySchema = "dsp-telemetry/v2"

// EpochSnapshot is the cluster-wide gauge set sampled at each epoch
// boundary, the live analogue of the audit log's "epoch" lines.
type EpochSnapshot struct {
	SimTimeMicros int64 `json:"sim_time_us"`
	Epoch         int   `json:"epoch"`
	QueuedTasks   int   `json:"queued_tasks"`
	RunningTasks  int   `json:"running_tasks"`
	BusySlots     int   `json:"busy_slots"`
	TotalSlots    int   `json:"total_slots"`
}

// Server is the opt-in live telemetry endpoint: a plain net/http server
// exposing the observability state of a running simulation.
//
//   - /metrics: Prometheus text exposition — every Counters tally as a
//     dsp_<name> counter, the latency-attribution aggregate as
//     dsp_attrib_seconds{cause="..."} gauges, the epoch gauges, and the
//     scheduler-phase profile (dsp_phase_count, dsp_phase_seconds_total,
//     dsp_phase_seconds{phase,quantile}) when a prof.Timer is attached.
//   - /healthz: liveness probe, returns "ok".
//   - /snapshot: the same state as one JSON document.
//
// All responses carry Cache-Control: no-store and a schema version
// marker (TelemetrySchema) so scrapers always see live state and can
// version-gate their parsing.
//
// It observes the simulation (an EpochEnded event copies the gauge set under a
// mutex) while HTTP handlers read concurrently; Counters are atomic and
// the attribution recorder locks internally, so attaching the server
// never blocks the event loop on a scrape.
type Server struct {
	counters *Counters
	attrib   *attrib.Recorder
	prof     *prof.Timer

	mu   sync.Mutex
	snap EpochSnapshot

	ln  net.Listener
	srv *http.Server
}

// NewTelemetry builds the telemetry surface without binding a listener,
// for embedding in a larger mux (the serving daemon mounts job routes
// and telemetry on one port). counters, rec and tm may be nil; the
// corresponding sections are omitted from the exposition. tm is read
// via atomic snapshots, so a scrape can overlap live recording (and
// concurrent Timer.Merge calls) without torn stats.
func NewTelemetry(counters *Counters, rec *attrib.Recorder, tm *prof.Timer) *Server {
	return &Server{counters: counters, attrib: rec, prof: tm}
}

// Register mounts the telemetry endpoints (/metrics, /healthz,
// /snapshot) on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
}

// StartServer binds addr (e.g. "127.0.0.1:9090", or ":0" for an
// ephemeral port) and serves telemetry until Close — NewTelemetry plus
// a dedicated listener, for callers that want telemetry on its own
// port.
func StartServer(addr string, counters *Counters, rec *attrib.Recorder, tm *prof.Timer) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := NewTelemetry(counters, rec, tm)
	s.ln = ln
	mux := http.NewServeMux()
	s.Register(mux)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the bound address ("127.0.0.1:54321"), useful when the
// caller asked for port 0. Only valid for servers built by StartServer.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops serving. In-flight scrapes are cut off; the simulation is
// unaffected. No-op for embedded (NewTelemetry) servers — the embedding
// daemon owns the listener.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// Observe implements sim.Observer: at EpochEnded it copies the epoch
// gauges out of the engine-owned view so scrapes never touch live engine
// state.
func (s *Server) Observe(ev sim.Event) {
	if ev.Kind != sim.EpochEnded {
		return
	}
	var snap EpochSnapshot
	snap.SimTimeMicros = int64(ev.At)
	snap.Epoch = ev.N
	v := ev.View
	c := v.Cluster()
	for k := 0; k < c.Len(); k++ {
		node := cluster.NodeID(k)
		snap.QueuedTasks += len(v.Queue(node))
		r := len(v.Running(node))
		snap.RunningTasks += r
		snap.BusySlots += r
		snap.TotalSlots += c.Nodes[k].Slots
	}
	s.mu.Lock()
	s.snap = snap
	s.mu.Unlock()
}

// metricName converts a Counters snapshot name ("task-starts") to a
// Prometheus metric name ("dsp_task_starts").
func metricName(name string) string {
	return "dsp_" + strings.ReplaceAll(name, "-", "_")
}

// noStore marks a telemetry response uncacheable: every scrape must see
// the live simulation state, never an intermediary's copy.
func noStore(w http.ResponseWriter) {
	w.Header().Set("Cache-Control", "no-store")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	noStore(w)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP dsp_schema_info Version of the telemetry surface served here.\n")
	fmt.Fprintf(&b, "# TYPE dsp_schema_info gauge\n")
	fmt.Fprintf(&b, "dsp_schema_info{schema=%q} 1\n", TelemetrySchema)
	if s.counters != nil {
		for _, ct := range s.counters.Snapshot() {
			n := metricName(ct.Name)
			fmt.Fprintf(&b, "# HELP %s Simulator event tally (%s).\n", n, ct.Name)
			fmt.Fprintf(&b, "# TYPE %s counter\n", n)
			fmt.Fprintf(&b, "%s %d\n", n, ct.Value)
		}
	}
	if s.attrib != nil {
		blame, jobs := s.attrib.Aggregate()
		fmt.Fprintf(&b, "# HELP dsp_attrib_jobs Jobs with a completed latency attribution.\n")
		fmt.Fprintf(&b, "# TYPE dsp_attrib_jobs counter\n")
		fmt.Fprintf(&b, "dsp_attrib_jobs %d\n", jobs)
		fmt.Fprintf(&b, "# HELP dsp_attrib_seconds Aggregate completion-time blame by cause, over attributed jobs.\n")
		fmt.Fprintf(&b, "# TYPE dsp_attrib_seconds gauge\n")
		for _, c := range attrib.Causes() {
			fmt.Fprintf(&b, "dsp_attrib_seconds{cause=%q} %g\n", c.String(), blame[c].Seconds())
		}
	}
	s.mu.Lock()
	snap := s.snap
	s.mu.Unlock()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for _, g := range []struct {
		name, help string
		value      float64
	}{
		{"dsp_sim_time_seconds", "Simulated time at the last epoch boundary.", units.Time(snap.SimTimeMicros).Seconds()},
		{"dsp_epoch", "Last completed scheduling epoch.", float64(snap.Epoch)},
		{"dsp_queued_tasks", "Tasks waiting in node queues.", float64(snap.QueuedTasks)},
		{"dsp_running_tasks", "Tasks occupying slots.", float64(snap.RunningTasks)},
		{"dsp_busy_slots", "Occupied slots cluster-wide.", float64(snap.BusySlots)},
		{"dsp_total_slots", "Total slots cluster-wide.", float64(snap.TotalSlots)},
		{"dsp_heap_alloc_bytes", "Live heap bytes of the serving process (runtime.MemStats.HeapAlloc).", float64(ms.HeapAlloc)},
		{"dsp_heap_sys_bytes", "Heap bytes obtained from the OS (runtime.MemStats.HeapSys).", float64(ms.HeapSys)},
		{"dsp_gc_runs", "Completed garbage-collection cycles (runtime.MemStats.NumGC).", float64(ms.NumGC)},
	} {
		fmt.Fprintf(&b, "# HELP %s %s\n", g.name, g.help)
		fmt.Fprintf(&b, "# TYPE %s gauge\n", g.name)
		fmt.Fprintf(&b, "%s %g\n", g.name, g.value)
	}
	if rows := s.phaseRows(); len(rows) > 0 {
		fmt.Fprintf(&b, "# HELP dsp_phase_count Exclusive scheduler-phase sample count.\n")
		fmt.Fprintf(&b, "# TYPE dsp_phase_count counter\n")
		for _, r := range rows {
			fmt.Fprintf(&b, "dsp_phase_count{phase=%q} %d\n", r.Phase, r.Count)
		}
		fmt.Fprintf(&b, "# HELP dsp_phase_seconds_total Exclusive wall time spent in each scheduler phase.\n")
		fmt.Fprintf(&b, "# TYPE dsp_phase_seconds_total counter\n")
		for _, r := range rows {
			fmt.Fprintf(&b, "dsp_phase_seconds_total{phase=%q} %g\n", r.Phase, r.TotalUS/1e6)
		}
		fmt.Fprintf(&b, "# HELP dsp_phase_seconds Per-sample scheduler-phase latency quantiles (log2-bucket upper bounds; max is exact).\n")
		fmt.Fprintf(&b, "# TYPE dsp_phase_seconds gauge\n")
		for _, r := range rows {
			for _, q := range []struct {
				label string
				us    float64
			}{
				{"0.5", r.P50US}, {"0.95", r.P95US}, {"0.99", r.P99US}, {"max", r.MaxUS},
			} {
				fmt.Fprintf(&b, "dsp_phase_seconds{phase=%q,quantile=%q} %g\n", r.Phase, q.label, q.us/1e6)
			}
		}
	}
	fmt.Fprint(w, b.String())
}

// phaseRows snapshots the attached phase timer's nonzero phases, largest
// total first. Nil timer (or nothing recorded yet) yields nil.
func (s *Server) phaseRows() []prof.PhaseBreakdown {
	if s.prof == nil {
		return nil
	}
	snap := s.prof.Snapshot()
	return snap.Breakdown()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	noStore(w)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// snapshotDoc is the /snapshot JSON layout. Schema always carries
// TelemetrySchema so consumers can version-gate their parsing.
type snapshotDoc struct {
	Schema   string                `json:"schema"`
	Epoch    EpochSnapshot         `json:"epoch"`
	Counters map[string]int64      `json:"counters,omitempty"`
	Attrib   *attribDoc            `json:"attrib,omitempty"`
	Phases   []prof.PhaseBreakdown `json:"phases,omitempty"`
}

type attribDoc struct {
	Jobs  int          `json:"jobs"`
	Blame attrib.Blame `json:"blame"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	noStore(w)
	s.mu.Lock()
	doc := snapshotDoc{Schema: TelemetrySchema, Epoch: s.snap}
	s.mu.Unlock()
	if s.counters != nil {
		doc.Counters = make(map[string]int64)
		for _, ct := range s.counters.Snapshot() {
			doc.Counters[ct.Name] = ct.Value
		}
	}
	if s.attrib != nil {
		blame, jobs := s.attrib.Aggregate()
		doc.Attrib = &attribDoc{Jobs: jobs, Blame: blame}
	}
	doc.Phases = s.phaseRows()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc) //nolint:errcheck // best-effort scrape response
}
