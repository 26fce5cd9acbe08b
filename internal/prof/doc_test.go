package prof

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// perfDocPhases returns the phase names listed in the "Phase taxonomy"
// table of PERF.md, in table order.
func perfDocPhases(t *testing.T) []string {
	t.Helper()
	doc, err := os.ReadFile("../../PERF.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n### Phase taxonomy\n")
	if !ok {
		t.Fatal("PERF.md has no \"### Phase taxonomy\" section")
	}
	row := regexp.MustCompile("^\\| `([^`]+)` \\|")
	var names []string
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "|") {
			inTable = true
			if m := row.FindStringSubmatch(line); m != nil {
				names = append(names, m[1])
			}
		} else if inTable {
			break // the first table of the section ends here
		}
	}
	return names
}

// TestPerfDocListsEveryPhase keeps PERF.md's phase taxonomy table in
// step with phaseNames: every phase listed once, in declaration order,
// and nothing else.
func TestPerfDocListsEveryPhase(t *testing.T) {
	listed := perfDocPhases(t)
	want := phaseNames[:]
	for _, name := range want {
		if !slices.Contains(listed, name) {
			t.Errorf("PERF.md phase taxonomy is missing phase %q", name)
		}
	}
	for _, name := range listed {
		if !slices.Contains(want, name) {
			t.Errorf("PERF.md phase taxonomy lists %q, which is not an internal/prof phase", name)
		}
	}
	if !t.Failed() && !slices.Equal(listed, want) {
		t.Errorf("PERF.md phase taxonomy order = %v, want declaration order %v", listed, want)
	}
}
