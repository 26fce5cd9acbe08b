package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"dsp/internal/prof"
)

func TestPhaseMapCoversEveryProfPhase(t *testing.T) {
	var names []string
	for p := prof.Phase(0); p < prof.NumPhases; p++ {
		names = append(names, p.String())
		if _, ok := phaseMetric[p.String()]; !ok {
			t.Errorf("prof phase %q has no per-layer metric", p)
		}
	}
	if !reflect.DeepEqual(names, phaseOrder) {
		t.Errorf("phaseOrder %v, want the prof taxonomy %v", phaseOrder, names)
	}
	if len(phaseMetric) != len(names) {
		t.Errorf("phaseMetric maps %d phases, prof has %d", len(phaseMetric), len(names))
	}
	for _, ph := range countedPhases {
		if _, ok := phaseMetric[ph]; !ok {
			t.Errorf("counted phase %q is not a prof phase", ph)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's metric and
// workload lists in step with what the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bj struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloads)
	}
	for _, w := range workloads {
		_, sweep := sweeps[w]
		_, serve := serveWorkloads[w]
		if sweep == serve {
			t.Errorf("workload %q is not exactly one of sweep or serve", w)
		}
	}
	check := func(kind string, got []def, want []metricDef) {
		g := map[string]string{}
		for _, d := range got {
			g[d.Name] = d.Unit
		}
		w := map[string]string{}
		for _, d := range want {
			w[d.name] = d.unit
		}
		if !reflect.DeepEqual(g, w) || len(got) != len(want) {
			var gn, wn []string
			for n := range g {
				gn = append(gn, n)
			}
			for n := range w {
				wn = append(wn, n)
			}
			sort.Strings(gn)
			sort.Strings(wn)
			t.Errorf("%s: BENCHMARK.json has %v\nprogram prints %v", kind, gn, wn)
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer())
}
