package main

import (
	"fmt"
	"os"
	"time"

	"dsp/internal/trace"
)

// jobScale is the repository's reduced task scale (experiments
// DefaultOptions, dspload's default).
const jobScale = 0.03

// genJobs builds n jobs the way dspload does: trace.DefaultSpec at
// jobScale with each job's total work kept at paper size, and every
// arrival reset to 0 so wall-clock pacing, not trace time, shapes the
// load.
func genJobs(n int, seed int64) ([]*trace.Job, error) {
	spec := trace.DefaultSpec(n, seed)
	spec.TaskScale = jobScale
	spec.MeanTaskSizeMI /= jobScale
	spec.ArrivalRateMin, spec.ArrivalRateMax = 3.5, 3.5
	w, err := trace.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generate jobs: %w", err)
	}
	for _, j := range w.Jobs {
		j.Arrival = 0
	}
	return w.Jobs, nil
}

// encodeJobs renders each job as a POST /jobs body, timing each
// trace.EncodeJob call in microseconds.
func encodeJobs(jobs []*trace.Job) ([][]byte, *dist, error) {
	bodies := make([][]byte, len(jobs))
	us := &dist{}
	for i, j := range jobs {
		t0 := time.Now()
		b, err := trace.EncodeJob(j)
		us.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
		if err != nil {
			return nil, nil, fmt.Errorf("encode job %d: %w", i, err)
		}
		bodies[i] = b
	}
	return bodies, us, nil
}

// decodeTimes times trace.DecodeJob on each body in microseconds: the
// per-POST decode cost the daemon pays before taking its lock.
func decodeTimes(bodies [][]byte) (*dist, error) {
	us := &dist{}
	for i, b := range bodies {
		t0 := time.Now()
		_, err := trace.DecodeJob(b)
		us.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
		if err != nil {
			return nil, fmt.Errorf("decode body %d: %w", i, err)
		}
	}
	return us, nil
}

// fsyncTimes appends n records of size bytes to a fresh file in dir,
// fsyncing after each, and returns each append+fsync time in
// milliseconds: the floor under a durable POST on this filesystem.
func fsyncTimes(dir string, size, n int) (*dist, error) {
	f, err := os.CreateTemp(dir, "fsync-*")
	if err != nil {
		return nil, fmt.Errorf("fsync calibration: %w", err)
	}
	defer os.Remove(f.Name())
	defer f.Close()
	rec := make([]byte, size)
	for i := range rec {
		rec[i] = 'x'
	}
	rec[size-1] = '\n'
	ms := &dist{}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.Write(rec); err != nil {
			return nil, fmt.Errorf("fsync calibration: %w", err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("fsync calibration: %w", err)
		}
		ms.add(float64(time.Since(t0).Nanoseconds()) / 1e6)
	}
	return ms, nil
}

// calibrate runs the machine calibrations every traced run reports, so
// a change in the disk or in trace's codec shows apart from a change in
// the code under test.
func calibrate(m metricMap, tmp string, bodies [][]byte, enc *dist) error {
	dec, err := decodeTimes(bodies)
	if err != nil {
		return err
	}
	var size int
	for _, b := range bodies {
		size += len(b)
	}
	// A journal line is the body plus about 40 bytes of envelope.
	fs, err := fsyncTimes(tmp, size/len(bodies)+40, 500)
	if err != nil {
		return err
	}
	m.set("trace.encode_us_p50", enc.quantile(0.5).value, "us")
	m.set("trace.decode_us_p50", dec.quantile(0.5).value, "us")
	m.set("disk.fsync_p50_ms", fs.quantile(0.5).value, "ms")
	m.set("disk.fsync_p99_ms", fs.quantile(0.99).value, "ms")
	return nil
}
