package sim

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// designDocEventKinds returns the event kinds listed in the first table
// after DESIGN.md's "Event taxonomy" paragraph, in table order.
func designDocEventKinds(t *testing.T) []string {
	t.Helper()
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n**Event taxonomy.**")
	if !ok {
		t.Fatal("DESIGN.md has no \"**Event taxonomy.**\" paragraph")
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

// TestDesignDocListsEveryEventKind keeps DESIGN.md's event taxonomy
// table in step with the EventKind constants: every kind listed once,
// in declaration order, and nothing else.
func TestDesignDocListsEveryEventKind(t *testing.T) {
	listed := designDocEventKinds(t)
	var want []string
	for k := EventKind(0); k < NumEventKinds; k++ {
		want = append(want, k.String())
	}
	for _, name := range want {
		if !slices.Contains(listed, name) {
			t.Errorf("DESIGN.md event taxonomy is missing event kind %q", name)
		}
	}
	for _, name := range listed {
		if !slices.Contains(want, name) {
			t.Errorf("DESIGN.md event taxonomy lists %q, which is not a sim.EventKind", name)
		}
	}
	if !t.Failed() && !slices.Equal(listed, want) {
		t.Errorf("DESIGN.md event taxonomy order = %v, want declaration order %v", listed, want)
	}
}
