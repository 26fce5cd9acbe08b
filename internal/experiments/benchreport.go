package experiments

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// BenchSchemaV2 is the bench report schema: per-cell wall times with
// per-cell phase breakdowns (CellTime.Phases). v1 reports, which carried
// wall times only, are no longer read.
const BenchSchemaV2 = "dsp-bench-sweep/v2"

// BenchReport is the machine-readable sweep benchmark dspbench writes
// with -bench-json and diffs with -compare. TotalWallMS sums the
// sweeps' wall times (sweeps execute one after another; only cells
// within a sweep run concurrently).
type BenchReport struct {
	Schema      string      `json:"schema"`
	Workers     int         `json:"workers"`
	GoMaxProcs  int         `json:"gomaxprocs"`
	NumCPU      int         `json:"num_cpu"`
	Scale       float64     `json:"scale"`
	Seed        int64       `json:"seed"`
	Sweeps      []SweepStat `json:"sweeps"`
	TotalWallMS float64     `json:"total_wall_ms"`
}

// Marshal serializes the report and validates that the bytes round-trip
// (unmarshal → deep-equal) before anyone can commit them as a baseline:
// a report whose own serialization loses information — an unmarshalable
// field, a lossy tag — must fail here, not in a future compare.
func (r *BenchReport) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bench report: marshal: %w", err)
	}
	var back BenchReport
	if err := json.Unmarshal(data, &back); err != nil {
		return nil, fmt.Errorf("bench report: round-trip unmarshal: %w", err)
	}
	if !reflect.DeepEqual(*r, back) {
		return nil, fmt.Errorf("bench report: schema does not round-trip (marshal → unmarshal changed the report); refusing to emit a lossy baseline")
	}
	return append(data, '\n'), nil
}

// ReadBenchReport loads and validates a report written by -bench-json.
func ReadBenchReport(data []byte) (*BenchReport, error) {
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench report: %w", err)
	}
	if r.Schema != BenchSchemaV2 {
		return nil, fmt.Errorf("bench report: unknown schema %q (want %s)", r.Schema, BenchSchemaV2)
	}
	return &r, nil
}

// CompareThresholds sets the noise tolerances of a report comparison.
// Fractions are one-sided: only growth counts as regression.
type CompareThresholds struct {
	// PhaseFrac is the allowed per-phase total growth (default 0.20).
	PhaseFrac float64
	// TotalFrac is the allowed total-wall growth (default 0.10).
	TotalFrac float64
	// MinPhaseUS is the noise floor: phases whose aggregate total stays
	// under this in both reports are never flagged, however large their
	// ratio — a 3µs phase tripling is jitter, not regression.
	MinPhaseUS float64
}

// DefaultCompareThresholds returns the documented defaults: ±20% per
// phase, ±10% total, 1ms phase noise floor.
func DefaultCompareThresholds() CompareThresholds {
	return CompareThresholds{PhaseFrac: 0.20, TotalFrac: 0.10, MinPhaseUS: 1000}
}

// PhaseDelta is one phase's aggregate comparison across two reports.
type PhaseDelta struct {
	Phase     string
	OldUS     float64
	NewUS     float64
	Frac      float64 // (new-old)/old; +Inf when old is 0
	Regressed bool
}

// CompareResult is the outcome of CompareBench: the total-wall delta,
// every phase's delta in blame order (largest absolute growth first),
// and whether anything crossed its threshold.
type CompareResult struct {
	OldTotalMS     float64
	NewTotalMS     float64
	TotalFrac      float64
	TotalRegressed bool
	Phases         []PhaseDelta
	// PhaseDataMissing notes that at least one report carries no phase
	// breakdowns, so only totals were compared.
	PhaseDataMissing bool
}

// Regressed reports whether the comparison should fail the build.
func (c *CompareResult) Regressed() bool {
	if c.TotalRegressed {
		return true
	}
	for _, p := range c.Phases {
		if p.Regressed {
			return true
		}
	}
	return false
}

// Render prints the blame-ordered comparison table.
func (c *CompareResult) Render() string {
	var b strings.Builder
	status := func(reg bool) string {
		if reg {
			return "REGRESSED"
		}
		return "ok"
	}
	fmt.Fprintf(&b, "%-14s %14s %14s %9s  %s\n", "phase", "old", "new", "delta", "status")
	fmt.Fprintf(&b, "%-14s %12.1fms %12.1fms %+8.1f%%  %s\n",
		"TOTAL", c.OldTotalMS, c.NewTotalMS, 100*c.TotalFrac, status(c.TotalRegressed))
	for _, p := range c.Phases {
		fmt.Fprintf(&b, "%-14s %12.1fms %12.1fms %+8.1f%%  %s\n",
			p.Phase, p.OldUS/1e3, p.NewUS/1e3, 100*p.Frac, status(p.Regressed))
	}
	if c.PhaseDataMissing {
		b.WriteString("(no phase breakdowns in at least one report — totals only)\n")
	}
	return b.String()
}

// aggregatePhases sums each phase's TotalUS across every cell of every
// sweep.
func aggregatePhases(r *BenchReport) map[string]float64 {
	agg := map[string]float64{}
	for _, sw := range r.Sweeps {
		for _, ct := range sw.CellTimes {
			for _, ph := range ct.Phases {
				agg[ph.Phase] += ph.TotalUS
			}
		}
	}
	return agg
}

// CompareBench diffs two bench reports. The reports must describe the
// same experiment — equal scale, seed, and sweep-name sequence —
// because comparing different workloads would flag configuration drift
// as performance regression. Thresholds are one-sided: a phase (or the
// total) regresses only when the new value exceeds the old by more than
// the allowed fraction and clears the noise floor.
func CompareBench(old, new *BenchReport, th CompareThresholds) (*CompareResult, error) {
	if old.Scale != new.Scale || old.Seed != new.Seed {
		return nil, fmt.Errorf("compare: reports describe different experiments: scale/seed %g/%d vs %g/%d",
			old.Scale, old.Seed, new.Scale, new.Seed)
	}
	oldNames := sweepNames(old)
	newNames := sweepNames(new)
	if !reflect.DeepEqual(oldNames, newNames) {
		return nil, fmt.Errorf("compare: sweep sets differ: %v vs %v", oldNames, newNames)
	}
	if th.PhaseFrac <= 0 {
		th.PhaseFrac = DefaultCompareThresholds().PhaseFrac
	}
	if th.TotalFrac <= 0 {
		th.TotalFrac = DefaultCompareThresholds().TotalFrac
	}

	res := &CompareResult{OldTotalMS: old.TotalWallMS, NewTotalMS: new.TotalWallMS}
	if old.TotalWallMS > 0 {
		res.TotalFrac = (new.TotalWallMS - old.TotalWallMS) / old.TotalWallMS
		res.TotalRegressed = res.TotalFrac > th.TotalFrac
	}

	oldAgg := aggregatePhases(old)
	newAgg := aggregatePhases(new)
	if len(oldAgg) == 0 || len(newAgg) == 0 {
		res.PhaseDataMissing = true
		return res, nil
	}
	names := map[string]bool{}
	for n := range oldAgg {
		names[n] = true
	}
	for n := range newAgg {
		names[n] = true
	}
	for n := range names {
		d := PhaseDelta{Phase: n, OldUS: oldAgg[n], NewUS: newAgg[n]}
		if d.OldUS > 0 {
			d.Frac = (d.NewUS - d.OldUS) / d.OldUS
		} else if d.NewUS > 0 {
			d.Frac = 1e9 // a brand-new phase: infinite relative growth
		}
		if d.OldUS < th.MinPhaseUS && d.NewUS < th.MinPhaseUS {
			// Under the noise floor in both reports: never flag.
		} else if d.Frac > th.PhaseFrac {
			d.Regressed = true
		}
		res.Phases = append(res.Phases, d)
	}
	// Blame order: largest absolute growth first, so the first flagged
	// row is where the regression's time actually went.
	sort.SliceStable(res.Phases, func(i, j int) bool {
		return res.Phases[i].NewUS-res.Phases[i].OldUS > res.Phases[j].NewUS-res.Phases[j].OldUS
	})
	return res, nil
}

func sweepNames(r *BenchReport) []string {
	names := make([]string, len(r.Sweeps))
	for i, sw := range r.Sweeps {
		names[i] = sw.Name
	}
	return names
}
