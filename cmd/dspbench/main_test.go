package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsp/internal/experiments"
)

// devNull routes table output away from the test log.
func devNull(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestRunTable2Only(t *testing.T) {
	if err := run([]string{"-fig", "table2"}, devNull(t)); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleFigureTinyScale(t *testing.T) {
	// 5a at a tiny scale exercises the whole harness quickly; the x-axis
	// job counts are fixed, so use the scale knob only.
	if err := run([]string{"-fig", "none", "-sensitivity", "delta", "-sensitivity-jobs", "12", "-scale", "0.02"}, devNull(t)); err != nil {
		t.Fatal(err)
	}
}

func TestRunFairness(t *testing.T) {
	if err := run([]string{"-fig", "none", "-fairness", "-sensitivity-jobs", "12", "-scale", "0.02"}, devNull(t)); err != nil {
		t.Fatal(err)
	}
}

func TestRunResilienceTinyScale(t *testing.T) {
	if err := run([]string{"-fig", "resilience", "-resilience-jobs", "12",
		"-faults", "0,20", "-scale", "0.02"}, devNull(t)); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-nope"}, devNull(t)); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-fig", "none", "-sensitivity", "bogus"}, devNull(t)); err == nil {
		t.Error("unknown sensitivity parameter accepted")
	}
	if err := run([]string{"-fig", "resilience", "-faults", "ten"}, devNull(t)); err == nil {
		t.Error("malformed -faults accepted")
	}
}

// captureOut returns a temp file to pass as run's output plus a reader
// for its final contents.
func captureOut(t *testing.T) (*os.File, func() string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out-*.txt")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, func() string {
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
}

// benchArgs is the smallest sweep that produces a bench report.
func benchArgs(extra ...string) []string {
	return append([]string{"-fig", "none", "-sensitivity", "delta",
		"-sensitivity-jobs", "12", "-scale", "0.02"}, extra...)
}

// TestBenchJSONSelfCompareAndRegression is the harness's end-to-end
// contract: a sweep writes a valid v2 report with phase breakdowns, the
// report self-compares clean (exit 0), and an injected synthetic
// regression makes -compare fail (exit non-zero).
func TestBenchJSONSelfCompareAndRegression(t *testing.T) {
	dir := t.TempDir()
	rep := filepath.Join(dir, "bench.json")
	if err := run(benchArgs("-bench-json", rep), devNull(t)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(rep)
	if err != nil {
		t.Fatal(err)
	}
	r, err := experiments.ReadBenchReport(data)
	if err != nil {
		t.Fatalf("written report invalid: %v", err)
	}
	if r.Schema != experiments.BenchSchemaV2 {
		t.Fatalf("schema = %q, want %q", r.Schema, experiments.BenchSchemaV2)
	}
	phased := 0
	for _, sw := range r.Sweeps {
		for _, ct := range sw.CellTimes {
			if len(ct.Phases) > 0 {
				phased++
			}
		}
	}
	if phased == 0 {
		t.Fatal("v2 report carries no phase breakdowns")
	}

	out, read := captureOut(t)
	if err := run([]string{"-compare", rep, rep}, out); err != nil {
		t.Fatalf("self-compare regressed: %v\n%s", err, read())
	}
	if got := read(); !strings.Contains(got, "no regression") {
		t.Errorf("self-compare output lacks clean verdict:\n%s", got)
	}

	// Inject a synthetic regression: double the total and triple every
	// phase, then the compare must fail and blame a phase.
	r.TotalWallMS *= 2
	for si := range r.Sweeps {
		r.Sweeps[si].WallMS *= 2
		for ci := range r.Sweeps[si].CellTimes {
			for pi := range r.Sweeps[si].CellTimes[ci].Phases {
				r.Sweeps[si].CellTimes[ci].Phases[pi].TotalUS *= 3
			}
		}
	}
	bad, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(dir, "bench.regressed.json")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	out2, read2 := captureOut(t)
	if err := run([]string{"-compare", rep, badPath}, out2); err == nil {
		t.Fatalf("synthetic regression not flagged:\n%s", read2())
	}
	if got := read2(); !strings.Contains(got, "REGRESSED") {
		t.Errorf("regression table lacks REGRESSED marker:\n%s", got)
	}
}

// TestCompareArgErrors pins the compare-mode CLI contract.
func TestCompareArgErrors(t *testing.T) {
	if err := run([]string{"-compare", "only-one.json"}, devNull(t)); err == nil {
		t.Error("-compare with one path accepted")
	}
	if err := run([]string{"-compare", "nope.json", "nope2.json"}, devNull(t)); err == nil {
		t.Error("-compare with missing files accepted")
	}
}

// TestPhasesFlag: -phases must print the aggregate phase table after the
// sweeps, including the hot scheduling phases.
func TestPhasesFlag(t *testing.T) {
	out, read := captureOut(t)
	if err := run(benchArgs("-phases"), out); err != nil {
		t.Fatal(err)
	}
	got := read()
	if !strings.Contains(got, "# Aggregate scheduler phases") {
		t.Fatalf("-phases output lacks the aggregate table:\n%.400s", got)
	}
	for _, phase := range []string{"schedule", "event-pump", "epoch-policy"} {
		if !strings.Contains(got, phase) {
			t.Errorf("-phases table missing phase %q", phase)
		}
	}
}

func TestTableIIText(t *testing.T) {
	out := tableII()
	for _, want := range []string{"delta", "0.35", "omega3", "Table II"} {
		if !strings.Contains(out, want) {
			t.Errorf("tableII missing %q", want)
		}
	}
}
