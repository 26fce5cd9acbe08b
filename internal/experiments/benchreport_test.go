package experiments

import (
	"strings"
	"testing"

	"dsp/internal/prof"
)

// sampleReport builds a small v2 report with one sweep of two cells.
func sampleReport() *BenchReport {
	return &BenchReport{
		Schema:     BenchSchemaV2,
		Workers:    1,
		GoMaxProcs: 1,
		NumCPU:     1,
		Scale:      0.03,
		Seed:       20180901,
		Sweeps: []SweepStat{{
			Name: "fig5-real-cluster", Workers: 1, Cells: 2, WallMS: 100, CellsPerSec: 20,
			CellTimes: []CellTime{
				{Label: "a", US: 60000, Phases: []prof.PhaseBreakdown{
					{Phase: "ilp-solve", Count: 10, TotalUS: 40000, MaxUS: 9000, P50US: 3000, P95US: 8000, P99US: 9000},
					{Phase: "event-pump", Count: 500, TotalUS: 20000, MaxUS: 100, P50US: 30, P95US: 90, P99US: 95},
				}},
				{Label: "b", US: 40000, Phases: []prof.PhaseBreakdown{
					{Phase: "sched-list", Count: 5, TotalUS: 30000, MaxUS: 9000, P50US: 5000, P95US: 8500, P99US: 9000},
					{Phase: "event-pump", Count: 400, TotalUS: 10000, MaxUS: 80, P50US: 20, P95US: 70, P99US: 75},
				}},
			},
		}},
		TotalWallMS: 100,
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	r := sampleReport()
	data, err := r.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := ReadBenchReport(data)
	if err != nil {
		t.Fatalf("ReadBenchReport: %v", err)
	}
	if back.Schema != BenchSchemaV2 || len(back.Sweeps) != 1 {
		t.Errorf("round-trip lost structure: %+v", back)
	}
	if len(back.Sweeps[0].CellTimes[0].Phases) != 2 {
		t.Errorf("round-trip lost phases")
	}
}

func TestReadBenchReportRejectsUnknownSchema(t *testing.T) {
	for _, schema := range []string{"dsp-bench-sweep/v1", "dsp-bench-sweep/v9"} {
		if _, err := ReadBenchReport([]byte(`{"schema":"` + schema + `"}`)); err == nil {
			t.Fatalf("schema %s accepted", schema)
		}
	}
	if _, err := ReadBenchReport([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCompareSelfIsClean(t *testing.T) {
	r := sampleReport()
	res, err := CompareBench(r, r, DefaultCompareThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressed() {
		t.Fatalf("self-compare regressed:\n%s", res.Render())
	}
}

func TestCompareFlagsSyntheticRegression(t *testing.T) {
	old := sampleReport()
	cur := sampleReport()
	// Inject a 3× blow-up in ilp-solve and grow the total past 10%.
	cur.Sweeps[0].CellTimes[0].Phases[0].TotalUS *= 3
	cur.TotalWallMS = old.TotalWallMS * 1.5
	res, err := CompareBench(old, cur, DefaultCompareThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Regressed() {
		t.Fatalf("synthetic regression not flagged:\n%s", res.Render())
	}
	if !res.TotalRegressed {
		t.Errorf("total growth 50%% not flagged")
	}
	// Blame order: ilp-solve grew most, so it must lead the table.
	if len(res.Phases) == 0 || res.Phases[0].Phase != "ilp-solve" || !res.Phases[0].Regressed {
		t.Errorf("blame order wrong: %+v", res.Phases)
	}
	out := res.Render()
	if !strings.Contains(out, "REGRESSED") {
		t.Errorf("render lacks REGRESSED marker:\n%s", out)
	}
}

func TestCompareNoiseFloorSuppressesTinyPhases(t *testing.T) {
	old := sampleReport()
	cur := sampleReport()
	// A tiny phase quintuples but stays under the noise floor.
	old.Sweeps[0].CellTimes[0].Phases = append(old.Sweeps[0].CellTimes[0].Phases,
		prof.PhaseBreakdown{Phase: "audit", Count: 1, TotalUS: 3})
	cur.Sweeps[0].CellTimes[0].Phases = append(cur.Sweeps[0].CellTimes[0].Phases,
		prof.PhaseBreakdown{Phase: "audit", Count: 1, TotalUS: 15})
	res, err := CompareBench(old, cur, DefaultCompareThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressed() {
		t.Fatalf("noise-floor phase flagged:\n%s", res.Render())
	}
}

// TestCompareV1ReportsTotalsOnly compares against a baseline whose cells
// carry no phase breakdowns, as the retired v1 reports did.
func TestCompareV1ReportsTotalsOnly(t *testing.T) {
	old := sampleReport()
	for si := range old.Sweeps {
		for ci := range old.Sweeps[si].CellTimes {
			old.Sweeps[si].CellTimes[ci].Phases = nil
		}
	}
	cur := sampleReport()
	res, err := CompareBench(old, cur, DefaultCompareThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !res.PhaseDataMissing {
		t.Errorf("phase-less baseline compare should note missing phase data")
	}
	if res.Regressed() {
		t.Errorf("equal totals regressed")
	}
	cur.TotalWallMS *= 2
	res, err = CompareBench(old, cur, DefaultCompareThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Regressed() {
		t.Errorf("doubled total not flagged on phase-less compare")
	}
}

func TestCompareRejectsMismatchedExperiments(t *testing.T) {
	old := sampleReport()
	cur := sampleReport()
	cur.Scale = 0.06
	if _, err := CompareBench(old, cur, DefaultCompareThresholds()); err == nil {
		t.Fatal("scale mismatch accepted")
	}
	cur = sampleReport()
	cur.Sweeps[0].Name = "fig8"
	if _, err := CompareBench(old, cur, DefaultCompareThresholds()); err == nil {
		t.Fatal("sweep-set mismatch accepted")
	}
}
