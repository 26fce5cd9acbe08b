package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsp/internal/chaos"
	"dsp/internal/cluster"
	"dsp/internal/preempt"
	"dsp/internal/sched"
	"dsp/internal/sim"
	"dsp/internal/trace"
	"dsp/internal/units"
)

// scanValidJSON asserts every line of data passes json.Valid and returns
// the per-event counts.
func scanValidJSON(t *testing.T, name string, data []byte) map[string]int {
	t.Helper()
	events := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		if !json.Valid(sc.Bytes()) {
			t.Errorf("%s line %d is not valid JSON: %s", name, n, sc.Text())
			continue
		}
		var line struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Errorf("%s line %d: %v", name, n, err)
			continue
		}
		events[line.Ev]++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if n == 0 {
		t.Fatalf("%s: no lines", name)
	}
	return events
}

// TestGoldensAreValidJSON asserts every line of every checked-in audit
// golden passes json.Valid — the hand-rolled Fprintf encoding must never
// drift from real JSON.
func TestGoldensAreValidJSON(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("testdata", "*.jsonl"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no goldens found: %v", err)
	}
	for _, path := range matches {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		scanValidJSON(t, filepath.Base(path), data)
	}
}

// TestAuditValidJSONUnderChaosOverload runs the full chaos + overload
// stack — the configuration that exercises every event class the writer
// knows, including degradations and sheddings with free-form reason
// strings — and asserts the live stream is valid JSON line by line, with
// exactly one job-blame line per completed job.
func TestAuditValidJSONUnderChaosOverload(t *testing.T) {
	spec := trace.DefaultSpec(24, 20180901)
	spec.TaskScale = 0.05
	w, err := trace.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.RealCluster(10)
	cs := chaos.DefaultSpec(cl.Len(), 20180901)
	cs.FaultyFraction = 0.3
	plan, err := cs.Plan()
	if err != nil {
		t.Fatal(err)
	}
	s := sched.NewDSP()
	s.ILPNodeBudget = 200
	var buf bytes.Buffer
	aw := NewAuditWriter(&buf)
	res, err := sim.Run(sim.Config{
		Cluster:      cl,
		Scheduler:    s,
		Preemptor:    preempt.NewDSP(),
		Checkpoint:   cluster.DefaultCheckpoint(),
		Epoch:        10 * units.Second,
		Faults:       plan,
		Speculation:  &sim.Speculation{},
		RetryBackoff: 2 * units.Second,
		Admission: &sim.Admission{
			MaxPendingTasks: 500,
			ShedInfeasible:  true,
			Margin:          1.5,
		},
		AuditInvariants: true,
		Observer:        aw,
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.Flush(); err != nil {
		t.Fatal(err)
	}
	events := scanValidJSON(t, "chaos-overload audit", buf.Bytes())
	if events["span"] == 0 {
		t.Error("no span lines in chaos audit")
	}
	if events["job-blame"] != res.JobsCompleted {
		t.Errorf("job-blame lines = %d, want one per completed job (%d)",
			events["job-blame"], res.JobsCompleted)
	}
}

// TestAuditEscaping feeds the free-form string fields hostile content —
// quotes, backslashes, and a control character %q would render as the
// JSON-invalid \a — and asserts the lines stay valid and round-trip.
func TestAuditEscaping(t *testing.T) {
	nasty := "has \"quotes\", a back\\slash and a bell: \a"
	var buf bytes.Buffer
	aw := NewAuditWriter(&buf)
	aw.BeginRun(nasty)
	aw.Observe(sim.Event{Kind: sim.SolverDegraded, At: units.Second, Degradation: sim.SolverDegradation{
		Reason: nasty, PendingTasks: 7,
	}})
	aw.Observe(sim.Event{Kind: sim.InvariantViolated, At: 2 * units.Second, Violation: sim.InvariantViolation{
		Check: "slot-capacity", Node: -1, Detail: nasty,
	}})
	if err := aw.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	n := 0
	for sc.Scan() {
		n++
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("line %d not valid JSON: %s", n, sc.Text())
		}
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"label", "reason", "detail"} {
			if v, ok := line[field].(string); ok && v != nasty {
				t.Errorf("line %d field %q round-tripped to %q, want %q", n, field, v, nasty)
			}
		}
	}
	if n != 3 {
		t.Fatalf("wrote %d lines, want 3", n)
	}
	if strings.Contains(buf.String(), `\a`) {
		t.Error("output contains Go-style \\a escape, which json.Valid rejects")
	}
}
