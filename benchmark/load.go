package main

import (
	"math/rand"
	"sync"
	"syscall"
	"time"
)

// The serving workloads are an open loop: requests are due on a fixed
// Poisson schedule whatever the daemon does, and every latency counts
// from the due time, so a stall is charged to every request it delays.

// op is one request of the schedule.
type op struct {
	due time.Duration // from the start of the load
	get bool          // GET /jobs/{job}; otherwise POST job
	job int
}

// schedule lays out n POSTs whose due times are a Poisson process at
// perSec, and after every getEvery-th POST a GET, due at the same time,
// for the job at half the current index — long since completed, so the
// daemon's blame lookup runs.
func schedule(seed int64, n int, perSec float64, getEvery int) []op {
	r := rand.New(rand.NewSource(seed))
	ops := make([]op, 0, n+n/max(getEvery, 1))
	var t float64
	for i := 0; i < n; i++ {
		t += r.ExpFloat64() / perSec
		due := time.Duration(t * float64(time.Second))
		ops = append(ops, op{due: due, job: i})
		if getEvery > 0 && (i+1)%getEvery == 0 {
			ops = append(ops, op{due: due, get: true, job: i / 2})
		}
	}
	return ops
}

// clock is the load's time source, offsets from the load's start; tests
// substitute a fake.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type wallClock struct{ start time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.start) }

// sleepUntil blocks the calling thread in nanosleep. Go's own timers
// wake up to a millisecond late on Linux, and spinning instead makes the
// dispatcher look CPU-bound to the kernel, which then delays it behind
// the daemon; a sleeping thread is woken promptly.
func (c wallClock) sleepUntil(t time.Duration) {
	for d := t - c.now(); d > 0; d = t - c.now() {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop sleeps again
	}
}

// rec is what happened to one op.
type rec struct {
	released time.Duration // the dispatcher handed it to a connection
	sent     time.Duration // a connection started sending it
	end      time.Duration // the last response byte arrived
	status   int           // HTTP status; 0 on a transport error
	stamp    int64         // a 202's stamp_us
}

func (r rec) latency(o op) time.Duration  { return r.end - o.due }
func (r rec) connWait(o op) time.Duration { return r.sent - o.due }
func (r rec) late(o op) time.Duration     { return r.released - o.due }

// sender performs one request and reports its status and, for an
// accepted POST, the virtual stamp.
type sender func(o op) (status int, stamp int64)

// runLoad plays ops on conns connections and returns one rec per op.
// onRelease, when set, runs on the dispatcher right after op i is
// released.
func runLoad(c clock, ops []op, send []sender, onRelease func(i int)) []rec {
	recs := make([]rec, len(ops))
	// Sized to the number of sends, so the dispatcher never blocks and
	// its lateness measures only its own wake-ups.
	ready := make(chan int, len(ops))
	var wg sync.WaitGroup
	wg.Add(len(send))
	for _, s := range send {
		go func(s sender) {
			defer wg.Done()
			work(c, ready, ops, recs, s)
		}(s)
	}
	dispatch(c, ops, ready, recs, onRelease)
	wg.Wait()
	return recs
}

// dispatch releases each op at its due time and closes out.
func dispatch(c clock, ops []op, out chan<- int, recs []rec, onRelease func(i int)) {
	for i := range ops {
		c.sleepUntil(ops[i].due)
		recs[i].released = c.now()
		out <- i
		if onRelease != nil {
			onRelease(i)
		}
	}
	close(out)
}

// work sends released ops one at a time on one connection.
func work(c clock, in <-chan int, ops []op, recs []rec, send sender) {
	for i := range in {
		recs[i].sent = c.now()
		recs[i].status, recs[i].stamp = send(ops[i])
		recs[i].end = c.now()
	}
}

// clockLagMS is how far the engine's clock trailed the pacer when each
// accepted POST was stamped, in wall milliseconds: the wall send time
// scaled by rate (virtual per wall second) minus the virtual stamp,
// offset so the smallest lag reads 0. The offset removes the unknown
// distance between the daemon's pacing origin and the load's start.
func clockLagMS(sent []time.Duration, stampUS []int64, rate float64) []float64 {
	lags := make([]float64, len(sent))
	lo := 0.0
	for i := range sent {
		pace := float64(sent[i].Microseconds()) * rate
		lags[i] = (pace - float64(stampUS[i])) / rate / 1e3
		if i == 0 || lags[i] < lo {
			lo = lags[i]
		}
	}
	for i := range lags {
		lags[i] -= lo
	}
	return lags
}
