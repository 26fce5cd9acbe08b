package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestScheduleDeterministicPerSeed(t *testing.T) {
	a, b := schedule(7, 400, 200, 4), schedule(7, 400, 200, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 400, 200, 4)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 500 {
		t.Fatalf("%d ops, want 400 POSTs + 100 GETs", len(a))
	}
	posts := 0
	for i, o := range a {
		if i > 0 && o.due < a[i-1].due {
			t.Fatalf("op %d due %v before op %d", i, o.due, i-1)
		}
		if !o.get {
			posts++
			continue
		}
		// A GET follows its POST, at the same due time, for the job at
		// half that POST's index.
		prev := a[i-1]
		if prev.get || o.due != prev.due || o.job != prev.job/2 {
			t.Fatalf("GET %+v after %+v", o, prev)
		}
	}
	// 400 exponential gaps at 200/s: the last due time is near 2 s.
	if last := a[len(a)-1].due.Seconds(); posts != 400 || math.Abs(last-2) > 0.4 {
		t.Fatalf("%d POSTs, last due %.2f s", posts, last)
	}
}

// fakeClock advances only when told to: sleeping jumps to the target
// plus a fixed wake-up lateness.
type fakeClock struct {
	t    time.Duration
	wake time.Duration
}

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t + c.wake
	}
}

func TestDispatchLatenessOnFakeClock(t *testing.T) {
	c := &fakeClock{wake: 300 * time.Microsecond}
	ops := []op{{due: 10 * time.Millisecond}, {due: 10 * time.Millisecond, get: true}, {due: 20 * time.Millisecond}, {due: 20100 * time.Microsecond}}
	recs := make([]rec, len(ops))
	out := make(chan int, len(ops))
	var released []int
	dispatch(c, ops, out, recs, func(i int) { released = append(released, i) })
	// Sleeping ops wake 300µs late; an op already due when the
	// dispatcher gets to it (the GET, and the last POST) goes at once.
	want := []time.Duration{300 * time.Microsecond, 300 * time.Microsecond, 300 * time.Microsecond, 200 * time.Microsecond}
	for i, o := range ops {
		if got := recs[i].late(o); got != want[i] {
			t.Errorf("op %d lateness %v, want %v", i, got, want[i])
		}
	}
	var order []int
	for i := range out {
		order = append(order, i)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) || !reflect.DeepEqual(released, order) {
		t.Fatalf("released %v, channel %v", released, order)
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	// One connection, requests due every 1ms, each taking 10ms: a closed
	// loop would report 10ms each; counted from the due time, the queue
	// that builds behind the slow server shows.
	c := &fakeClock{}
	var ops []op
	for i := 0; i < 5; i++ {
		ops = append(ops, op{due: time.Duration(i) * time.Millisecond, job: i})
	}
	in := make(chan int, len(ops))
	for i := range ops {
		in <- i
	}
	close(in)
	recs := make([]rec, len(ops))
	work(c, in, ops, recs, func(o op) (int, int64) {
		c.t += 10 * time.Millisecond
		return 202, int64(o.job)
	})
	for i, o := range ops {
		wantLat := time.Duration(10*(i+1)-i) * time.Millisecond
		wantWait := time.Duration(10*i-i) * time.Millisecond
		if recs[i].latency(o) != wantLat || recs[i].connWait(o) != wantWait || recs[i].status != 202 || recs[i].stamp != int64(i) {
			t.Errorf("op %d: latency %v wait %v status %d stamp %d; want latency %v wait %v",
				i, recs[i].latency(o), recs[i].connWait(o), recs[i].status, recs[i].stamp, wantLat, wantWait)
		}
	}
}

func TestClockLagOffset(t *testing.T) {
	const rate = 1000 // virtual µs per wall µs
	sent := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	// The engine's origin is 5ms of wall time ahead of the load's, and it
	// trails its pacer by 1ms, 4ms and 2ms of wall time.
	origin := int64(5000 * rate)
	stamps := []int64{
		origin + (10000-1000)*rate,
		origin + (20000-4000)*rate,
		origin + (30000-2000)*rate,
	}
	got := clockLagMS(sent, stamps, rate)
	want := []float64{0, 3, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("lags %v, want %v", got, want)
		}
	}
}
