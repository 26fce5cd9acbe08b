package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dsp/internal/experiments"
)

// tinySweep is a two-cell sweep (Figure 8 at 20 jobs) small enough for
// the smoke tests.
const tinySweep = "test-tiny"

func TestMain(m *testing.M) {
	sweeps[tinySweep] = sweepWorkload{
		scaleJobCounts: []int{20},
		cells:          2,
		render: func(o experiments.Options, out *bytes.Buffer) error {
			f, err := experiments.Fig8(o)
			if err != nil {
				return err
			}
			emit(out, f.Makespan)
			emit(out, f.Throughput)
			return nil
		},
	}
	// The sweep parent starts its own binary as the pass child; under
	// test that binary is this one.
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func tinyDigest(t *testing.T, seed int64) string {
	t.Helper()
	var buf bytes.Buffer
	if err := runPass(tinySweep, seed, false, &buf); err != nil {
		t.Fatal(err)
	}
	_, line, _ := strings.Cut(buf.String(), "\n")
	var rep passReport
	if err := json.Unmarshal([]byte(line), &rep); err != nil {
		t.Fatal(err)
	}
	return rep.Digest
}

func TestSweepSmoke(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 3
	first := poolOrder(seed)[0]
	pinned := map[string]map[string]string{tinySweep: {strconv.FormatInt(first, 10): tinyDigest(t, first)}}
	// A zero-length run still makes one pass.
	out, err := sweepRun{name: tinySweep, seed: seed, exe: exe, pinned: pinned, log: io.Discard}.run(true)
	if err != nil {
		t.Fatal(err)
	}
	if out.attempted != 2 || out.failed != 0 {
		t.Fatalf("attempted %d, failed %d; want 2 cells, none failed", out.attempted, out.failed)
	}
	for _, d := range endToEnd {
		if v := out.m[d.name].Value; v <= 0 {
			t.Errorf("%s = %g, want > 0", d.name, v)
		}
	}
	if c := out.m["experiments.phase_cover"].Value; c < 0.9 || c > 1 {
		t.Errorf("phase_cover %g, want the phases to tile the cells", c)
	}
	if len(out.spans) != 2 {
		t.Errorf("%d spans, want one per cell", len(out.spans))
	}
}

// TestWrongDigestFailsEveryCell runs the whole command on a sweep whose
// pinned digest is wrong: every cell counts as failed and the exit
// status is non-zero.
func TestWrongDigestFailsEveryCell(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", tinySweep, "--seed", "3", "--seconds", "0", "--trace", "0", "-out", t.TempDir()}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit 0 with a wrong digest; stderr:\n%s", stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Fatalf("result %+v: want every attempted cell failed", res)
	}
	if !strings.Contains(stderr.String(), "table digest") {
		t.Errorf("stderr does not name the digest mismatch:\n%s", stderr.String())
	}
}

func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "dspserve")
	build := exec.Command("go", "build", "-o", bin, "dsp/cmd/dspserve")
	if b, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build dspserve: %v\n%s", err, b)
	}
	for _, durable := range []bool{true, false} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			p := serveDefaults(0.25) // 50 jobs
			p.probes = 1
			p.settle = 10 * time.Second
			// One stall on a busy test machine must not void a 62-request run.
			p.maxLate = 100 * time.Millisecond
			var log bytes.Buffer
			out, err := serveRun{durable: durable, seed: 1, p: p, bin: bin, tmp: t.TempDir(), log: &log}.run(true)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			extra := 1 // the daemon's exit report
			if durable {
				extra++ // the journal
			}
			if want := 50 + 12 + 50 + extra; out.attempted != want || out.failed != 0 {
				t.Fatalf("attempted %d, failed %d; want %d, none failed\n%s", out.attempted, out.failed, want, log.String())
			}
			for _, d := range endToEnd {
				if v := out.m[d.name].Value; v <= 0 {
					t.Errorf("%s = %g, want > 0", d.name, v)
				}
			}
			snaps := out.m["recover.snapshot_n"].Value
			if durable != (snaps > 0) {
				t.Errorf("durable=%v: recover.snapshot_n = %g", durable, snaps)
			}
			if durable != (out.m["serve.journal_bytes_per_job"].Value > 0) {
				t.Errorf("durable=%v: journal bytes %g", durable, out.m["serve.journal_bytes_per_job"].Value)
			}
			if len(out.spans) != 62 {
				t.Errorf("%d spans, want one per request", len(out.spans))
			}
		})
	}
}
