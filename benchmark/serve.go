package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dsp/internal/trace"
)

// errInvalid marks a run whose load generator or daemon misbehaved so
// badly that its numbers mean nothing; such a run prints no metrics.
var errInvalid = errors.New("invalid run")

// The serving load: 12000 jobs per wall minute on a daemon paced at
// 14400 virtual seconds per wall second, i.e. 0.83 jobs per virtual
// minute — the load of results/serve_real50.txt, 12 times faster.
const (
	postsPerSec = 200   // offered POST rate, open loop
	paceRate    = 14400 // dspserve -rate: virtual seconds per wall second
	connections = 2     // client keep-alive connections
	getEvery    = 4     // one GET per this many POSTs
	maxPending  = 10000 // dspserve -max-pending
)

// serveParams sizes a serving workload run.
type serveParams struct {
	jobs   int           // POSTs in the load
	probes int           // extra daemon starts timed for setup_s
	settle time.Duration // how long accepted jobs get to complete after the load
	// maxLate is the dispatcher p99 lateness beyond which the run is
	// invalid: one mean gap between requests, so an invalid run is one
	// whose generator did not keep to its schedule, not one that met a
	// few scheduling hiccups on a shared machine.
	maxLate time.Duration
}

// serveDefaults is the serving load for a run of the given length.
func serveDefaults(seconds float64) serveParams {
	return serveParams{
		jobs:    int(postsPerSec * seconds),
		probes:  5,
		settle:  60 * time.Second,
		maxLate: time.Second / postsPerSec,
	}
}

// serveRun is one serving workload run.
type serveRun struct {
	durable bool
	seed    int64
	p       serveParams
	bin     string // dspserve binary
	tmp     string // parent of checkpoint dirs and calibration files
	log     io.Writer
}

// daemon is one running dspserve.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	stdout  bytes.Buffer
	stderr  bytes.Buffer // written until errDone closes
	errDone chan struct{}
	ready   time.Duration // exec → first 200 from /healthz
}

// startDaemon starts dspserve on an ephemeral port and returns once
// /healthz answers 200.
func startDaemon(bin, ckptDir string) (*daemon, error) {
	args := []string{
		"-listen", "127.0.0.1:0", "-platform", "real", "-scheduler", "DSP", "-preemptor", "DSP",
		"-rate", strconv.Itoa(paceRate), "-max-pending", strconv.Itoa(maxPending),
	}
	if ckptDir != "" {
		args = append(args, "-checkpoint-dir", ckptDir)
	}
	d := &daemon{cmd: exec.Command(bin, args...), errDone: make(chan struct{})}
	d.cmd.Stdout = &d.stdout
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dspserve: %w", err)
	}
	br := bufio.NewReader(pipe)
	var early strings.Builder
	for d.base == "" {
		line, err := br.ReadString('\n')
		if err != nil {
			d.kill()
			return nil, fmt.Errorf("dspserve exited before serving: %s", early.String())
		}
		early.WriteString(line)
		if _, rest, ok := strings.Cut(line, "dspserve: serving on "); ok {
			addr, _, _ := strings.Cut(rest, " ")
			d.base = "http://" + addr
		}
	}
	go func() {
		io.Copy(&d.stderr, br) //nolint:errcheck // diagnostics only
		close(d.errDone)
	}()
	resp, err := http.Get(d.base + "/healthz")
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("dspserve /healthz: %w", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.kill()
		return nil, fmt.Errorf("dspserve /healthz: HTTP %d", resp.StatusCode)
	}
	d.ready = time.Since(t0)
	return d, nil
}

// stop sends SIGTERM (dspserve drains every accepted job, then exits)
// and waits up to timeout before killing it.
func (d *daemon) stop(timeout time.Duration) error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal dspserve: %w", err)
	}
	done := make(chan error, 1)
	go func() {
		<-d.errDone
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("dspserve: %w: %s", err, d.stderr.String())
		}
		return nil
	case <-time.After(timeout):
		d.cmd.Process.Kill() //nolint:errcheck // already failing
		<-done
		return fmt.Errorf("dspserve did not exit within %v of SIGTERM", timeout)
	}
}

// kill stops a daemon on an error path.
func (d *daemon) kill() {
	if d.cmd.ProcessState != nil {
		return
	}
	d.cmd.Process.Kill() //nolint:errcheck // the process may be gone already
	d.cmd.Wait()         //nolint:errcheck // killed on purpose
}

// conn is one keep-alive client connection.
func conn() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// do performs one request and returns its status and body; status 0
// means a transport error.
func do(c *http.Client, method, url string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, b
}

// jobStatus is the part of GET /jobs/{id} the benchmark checks.
type jobStatus struct {
	State     string `json:"state"`
	ArrivalUS int64  `json:"arrival_us"`
	DoneAtUS  int64  `json:"done_at_us"`
}

// scrape reads /metrics into series → value.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	code, body := do(c, http.MethodGet, base+"/metrics", nil)
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// phasesOf extracts the daemon's prof phase totals from a scrape.
func phasesOf(s map[string]float64) phaseTotals {
	p := phaseTotals{}
	for ph := range phaseMetric {
		p.add(ph, s[fmt.Sprintf("dsp_phase_seconds_total{phase=%q}", ph)]*1e6, s[fmt.Sprintf("dsp_phase_count{phase=%q}", ph)])
	}
	return p
}

// sample is the daemon's counters at one instant.
type sample struct {
	cpu        time.Duration
	writeBytes float64
	writeCalls float64
	phases     phaseTotals // traced runs only
}

func (r serveRun) sample(c *http.Client, base string, pid int, traced bool) (sample, error) {
	var s sample
	var err error
	if s.cpu, err = procCPU(pid); err != nil {
		return s, err
	}
	if s.writeBytes, s.writeCalls, err = procIO(pid); err != nil {
		return s, err
	}
	if traced {
		m, err := scrape(c, base)
		if err != nil {
			return s, err
		}
		s.phases = phasesOf(m)
	}
	return s, nil
}

func (r serveRun) ckptDir() (string, error) {
	if !r.durable {
		return "", nil
	}
	return os.MkdirTemp(r.tmp, "ckpt-*")
}

func (r serveRun) run(traced bool) (*outcome, error) {
	p := r.p
	jobs, err := genJobs(p.jobs, r.seed)
	if err != nil {
		return nil, err
	}
	bodies, enc, err := encodeJobs(jobs)
	if err != nil {
		return nil, err
	}
	ops := schedule(r.seed, p.jobs, postsPerSec, getEvery)
	out := &outcome{m: metricMap{}}

	var setups []float64
	for i := 0; i < p.probes; i++ {
		dir, err := r.ckptDir()
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(r.bin, dir)
		if err == nil {
			setups = append(setups, d.ready.Seconds())
			err = d.stop(30 * time.Second)
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
		if err != nil {
			return nil, err
		}
	}
	if traced {
		if err := calibrate(out.m, r.tmp, bodies, enc); err != nil {
			return nil, err
		}
	}

	dir, err := r.ckptDir()
	if err != nil {
		return nil, err
	}
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	d, err := startDaemon(r.bin, dir)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	setups = append(setups, d.ready.Seconds())
	pid := d.cmd.Process.Pid

	conns := make([]*http.Client, connections)
	send := make([]sender, connections)
	for i := range conns {
		c := conn()
		defer c.CloseIdleConnections()
		if code, _ := do(c, http.MethodGet, d.base+"/healthz", nil); code != http.StatusOK {
			return nil, fmt.Errorf("warm-up /healthz: HTTP %d", code)
		}
		conns[i] = c
		send[i] = func(o op) (int, int64) {
			if o.get {
				code, _ := do(c, http.MethodGet, fmt.Sprintf("%s/jobs/%d", d.base, jobs[o.job].DAG.ID), nil)
				return code, 0
			}
			code, body := do(c, http.MethodPost, d.base+"/jobs", bodies[o.job])
			var ack struct {
				StampUS int64 `json:"stamp_us"`
			}
			if code == http.StatusAccepted && json.Unmarshal(body, &ack) != nil {
				return 0, 0
			}
			return code, ack.StampUS
		}
	}

	before, err := r.sample(conns[0], d.base, pid, traced)
	if err != nil {
		return nil, err
	}
	var heapPeak float64
	stopScrape := func() {}
	if traced {
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			c := conn()
			defer c.CloseIdleConnections()
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for {
				if m, err := scrape(c, d.base); err == nil {
					heapPeak = max(heapPeak, m["dsp_heap_alloc_bytes"])
				}
				select {
				case <-stop:
					return
				case <-t.C:
				}
			}
		}()
		stopScrape = sync.OnceFunc(func() {
			close(stop)
			<-done
		})
		defer stopScrape()
	}
	half := -1
	for i, o := range ops {
		if !o.get && o.job == p.jobs/2 {
			half = i
			break
		}
	}
	var mid time.Duration
	var midErr error
	recs := runLoad(wallClock{time.Now()}, ops, send, func(i int) {
		if i == half {
			mid, midErr = procCPU(pid)
		}
	})
	after, err := r.sample(conns[0], d.base, pid, traced)
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSSMiB(pid)
	if err != nil {
		return nil, err
	}
	stopScrape() // heapPeak is final from here on
	if midErr != nil {
		return nil, midErr
	}

	var post, get, connWait, late dist
	var accepted []int
	var sent []time.Duration
	var stamps []int64
	var lastEnd time.Duration
	var posts202, postsOther, gets200, getsOther int
	ms := func(t time.Duration) float64 { return float64(t.Nanoseconds()) / 1e6 }
	for i, o := range ops {
		rc := recs[i]
		late.add(ms(rc.late(o)))
		connWait.add(ms(rc.connWait(o)))
		lastEnd = max(lastEnd, rc.end)
		if o.get {
			get.add(ms(rc.latency(o)))
			if rc.status == http.StatusOK {
				gets200++
			} else {
				getsOther++
			}
			continue
		}
		post.add(ms(rc.latency(o)))
		if rc.status == http.StatusAccepted {
			posts202++
			accepted = append(accepted, o.job)
			sent = append(sent, rc.sent)
			stamps = append(stamps, rc.stamp)
		} else {
			postsOther++
		}
	}
	out.attempted += len(ops)
	out.failed += postsOther + getsOther
	fmt.Fprintf(r.log, "load: %d POSTs sent, %d answered 202, %d other; %d GETs sent, %d answered 200, %d other; %.2f s\n",
		posts202+postsOther, posts202, postsOther, gets200+getsOther, gets200, getsOther, lastEnd.Seconds())
	lateP99 := late.quantile(0.99)
	fmt.Fprintf(r.log, "dispatcher lateness %s; connection wait %s\n", lateP99, connWait.quantile(0.99))
	if lateP99.value > float64(p.maxLate.Nanoseconds())/1e6 {
		return nil, fmt.Errorf("%w: dispatcher p99 lateness %.3f ms exceeds %v", errInvalid, lateP99.value, p.maxLate)
	}
	if len(accepted) == 0 {
		return nil, fmt.Errorf("%w: no POST was accepted", errInvalid)
	}

	resp, failedJobs, err := r.settle(conns, d.base, jobs, accepted)
	if err != nil {
		return nil, err
	}
	out.attempted += len(accepted)
	out.failed += failedJobs

	out.attempted++ // the daemon's clean exit and final report
	if err := d.stop(60 * time.Second); err != nil {
		fmt.Fprintf(r.log, "stop: %v\n", err)
		out.failed++
	} else if want := fmt.Sprintf("jobs: %d completed, 0 failed", len(accepted)); !strings.Contains(d.stdout.String(), want) {
		fmt.Fprintf(r.log, "dspserve final report %q lacks %q\n", d.stdout.String(), want)
		out.failed++
	}
	var journalBytes float64
	if r.durable {
		out.attempted++ // the journal holds every accepted submission
		b, err := os.ReadFile(filepath.Join(dir, "submissions.jsonl"))
		if n := bytes.Count(b, []byte(`"op":"submit"`)); err != nil || n != len(accepted) {
			fmt.Fprintf(r.log, "journal: %d submit entries for %d accepted jobs (%v)\n", n, len(accepted), err)
			out.failed++
		}
		journalBytes = float64(len(b))
	}

	n := float64(len(accepted))
	cpu := after.cpu - before.cpu
	p50, p90 := post.quantile(0.5), post.quantile(0.9)
	fmt.Fprintf(r.log, "POST latency %s, %s, %s; GET latency %s, %s\n",
		p50, p90, post.quantile(0.99), get.quantile(0.5), get.quantile(0.9))
	out.m.set("setup_s", median(setups), "s")
	out.m.set("jobs_per_s", n/lastEnd.Seconds(), "1/s")
	out.m.set("cpu_ms_per_job", cpu.Seconds()*1e3/n, "ms")
	out.m.set("latency_p50_ms", p50.value, "ms")
	out.m.set("latency_p90_ms", p90.value, "ms")
	out.m.set("peak_rss_mib", rss, "MiB")
	if !traced {
		return out, nil
	}

	phases := phaseTotals{}
	for ph := range phaseMetric {
		phases.add(ph, after.phases[ph].us-before.phases[ph].us, after.phases[ph].n-before.phases[ph].n)
	}
	phaseMetrics(phases, n, out.m)
	out.m.set("serve.outside_engine_us", (float64(cpu.Microseconds())-phases.engineUS())/n, "us/job")
	if per := phases["serve-period"]; per.n > 0 {
		out.m.set("serve.period_mean_ms", per.us/per.n/1e3, "ms")
	}
	lag := &dist{}
	for _, l := range clockLagMS(sent, stamps, paceRate) {
		lag.add(l)
	}
	out.m.set("serve.clock_lag_p99_ms", lag.quantile(0.99).value, "ms")
	if first := mid - before.cpu; first > 0 {
		out.m.set("serve.cpu_growth", float64(after.cpu-mid)/float64(first), "ratio")
	}
	out.m.set("serve.journal_bytes_per_job", journalBytes/n, "B/job")
	out.m.set("serve.write_calls_per_job", (after.writeCalls-before.writeCalls)/n, "1/job")
	out.m.set("recover.write_bytes_per_job", (after.writeBytes-before.writeBytes-journalBytes)/n, "B/job")
	out.m.set("serve.heap_peak_mib", heapPeak/(1<<20), "MiB")
	out.m.set("serve.post_p99_ms", post.quantile(0.99).value, "ms")
	out.m.set("serve.post_max_ms", post.max(), "ms")
	out.m.set("serve.post_n", float64(post.n()), "count")
	out.m.set("serve.get_p50_ms", get.quantile(0.5).value, "ms")
	out.m.set("serve.get_p90_ms", get.quantile(0.9).value, "ms")
	out.m.set("serve.get_p99_ms", get.quantile(0.99).value, "ms")
	out.m.set("serve.get_max_ms", get.max(), "ms")
	out.m.set("serve.get_n", float64(get.n()), "count")
	out.m.set("serve.job_resp_p50_vs", resp.quantile(0.5).value, "vs")
	out.m.set("serve.job_resp_p99_vs", resp.quantile(0.99).value, "vs")
	out.m.set("load.conn_wait_p99_ms", connWait.quantile(0.99).value, "ms")
	out.m.set("load.gen_late_p99_ms", lateP99.value, "ms")
	for i, o := range ops {
		rc := recs[i]
		kind := "post"
		if o.get {
			kind = "get"
		}
		out.spans = append(out.spans, map[string]any{
			"kind": kind, "op": i, "job": o.job, "due_us": o.due.Microseconds(),
			"released_us": rc.released.Microseconds(), "sent_us": rc.sent.Microseconds(),
			"end_us": rc.end.Microseconds(), "status": rc.status, "stamp_us": rc.stamp,
		})
	}
	return out, nil
}

// settle reads every accepted job's final status, re-reading the ones
// still in flight until all have settled or p.settle runs out. It
// returns each completed job's response time in virtual seconds and how
// many settled other than completed.
func (r serveRun) settle(conns []*http.Client, base string, jobs []*trace.Job, accepted []int) (*dist, int, error) {
	resp := &dist{}
	failed := 0
	pending := accepted
	deadline := time.Now().Add(r.p.settle)
	for reads := 0; len(pending) > 0; reads++ {
		st := make([]jobStatus, len(pending))
		codes := make([]int, len(pending))
		var wg sync.WaitGroup
		wg.Add(len(conns))
		for w, c := range conns {
			go func(w int, c *http.Client) {
				defer wg.Done()
				for i := w; i < len(pending); i += len(conns) {
					var body []byte
					codes[i], body = do(c, http.MethodGet, fmt.Sprintf("%s/jobs/%d", base, jobs[pending[i]].DAG.ID), nil)
					if codes[i] == http.StatusOK && json.Unmarshal(body, &st[i]) != nil {
						codes[i] = 0
					}
				}
			}(w, c)
		}
		wg.Wait()
		var next []int
		for i, job := range pending {
			switch {
			case codes[i] != http.StatusOK:
				failed++
			case st[i].State == "completed":
				resp.add(float64(st[i].DoneAtUS-st[i].ArrivalUS) / 1e6)
			case st[i].State == "failed" || st[i].State == "shed" || st[i].State == "cancelled":
				failed++
			default:
				next = append(next, job)
			}
		}
		fmt.Fprintf(r.log, "settle read %d: %d GETs, %d still in flight\n", reads, len(pending), len(next))
		if len(next) > 0 {
			if time.Now().After(deadline) {
				return nil, 0, fmt.Errorf("%w: %d accepted jobs unsettled after %v", errInvalid, len(next), r.p.settle)
			}
			time.Sleep(100 * time.Millisecond)
		}
		pending = next
	}
	return resp, failed, nil
}
