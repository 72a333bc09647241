package main

// Load generation: an open loop that sends on a seeded Poisson schedule
// over a fixed pool of connections, and a closed loop for callers that
// wait on each reply. Open-loop latency is timed from each request's
// due time, so a stall charges every request queued behind it.

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// op sends request i on connection conn and reports its outcome.
type op func(conn, i int) outcome

// outcome classifies one request. A shed (429) or transport error is
// failed; an answer the oracle rejects is wrong.
type outcome int

const (
	okOutcome outcome = iota
	failedOutcome
	wrongOutcome
)

// phase is the record of one measured phase.
type phase struct {
	Name    string
	Rate    float64 // offered per second; 0 for a closed loop
	Seconds float64
	Sent    int
	OK      int
	Failed  int
	Wrong   int
	P50ms   float64
	P90ms   float64
	P99ms   float64
	LateP99 float64

	lat  []float64 // ms, per request
	late []float64 // ms, send time minus due time
}

// poissonSchedule returns n due offsets of a Poisson process at rate/s.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// openLoop sends requests due on a Poisson schedule at rate/s for dur
// over conns connections. One dispatcher hands each request to a free
// connection at its due time; a request due while every connection is
// busy waits for one, and that wait counts in its latency.
func openLoop(pc *pacer, name string, rng *rand.Rand, rate float64, dur time.Duration, conns int, do op, tr *tracer) phase {
	n := int(math.Ceil(rate * dur.Seconds()))
	due := poissonSchedule(rng, rate, n)
	p := phase{Name: name, Rate: rate, lat: make([]float64, n), late: make([]float64, n)}
	outs := make([]outcome, n)
	work := make(chan int)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range work {
				dueAt := start.Add(due[i])
				sent := time.Now()
				outs[i] = do(c, i)
				end := time.Now()
				tr.record("loadgen.request", int64(i+1), 0, sent, end)
				p.lat[i] = ms(end.Sub(dueAt))
				p.late[i] = ms(sent.Sub(dueAt))
			}
		}(c)
	}
	for i := range due {
		pc.until(start.Add(due[i]))
		work <- i
	}
	close(work)
	wg.Wait()
	p.Seconds = time.Since(start).Seconds()
	p.tally(outs)
	return p
}

// closedLoop runs conns callers back to back for dur; each sends its
// next request as soon as the previous reply arrives. Lateness is the
// gap between a reply and the caller's next send.
func closedLoop(name string, dur time.Duration, conns int, do op, tr *tracer) phase {
	type rec struct {
		lat, late float64
		out       outcome
	}
	per := make([][]rec, conns)
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := time.Now()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				sent := time.Now()
				out := do(c, i)
				end := time.Now()
				tr.record("loadgen.request", int64(i+1), 0, sent, end)
				per[c] = append(per[c], rec{lat: ms(end.Sub(sent)), late: ms(sent.Sub(prev)), out: out})
				prev = end
			}
		}(c)
	}
	wg.Wait()
	p := phase{Name: name, Seconds: time.Since(start).Seconds()}
	var outs []outcome
	for _, rs := range per {
		for _, r := range rs {
			p.lat = append(p.lat, r.lat)
			p.late = append(p.late, r.late)
			outs = append(outs, r.out)
		}
	}
	p.tally(outs)
	return p
}

func (p *phase) tally(outs []outcome) {
	p.Sent = len(outs)
	for _, o := range outs {
		switch o {
		case okOutcome:
			p.OK++
		case failedOutcome:
			p.Failed++
		case wrongOutcome:
			p.Wrong++
		}
	}
	p.P50ms = windowed(p.lat, 0.50)
	p.P90ms = windowed(p.lat, 0.90)
	p.P99ms = windowed(p.lat, 0.99)
	p.LateP99 = windowed(p.late, 0.99)
}

// windowed is the median, over up to maxWindows consecutive windows of
// at least minWindow samples, of each window's q-quantile; with fewer
// than three windows it is the plain quantile. A burst of CPU time
// stolen by other guests of the host then moves a few windows, not the
// phase.
func windowed(xs []float64, q float64) float64 {
	const minWindow, maxWindows = 1000, 12
	n := min(len(xs)/minWindow, maxWindows)
	if n < 3 {
		return quantile(xs, q)
	}
	per := make([]float64, n)
	for w := range per {
		per[w] = quantile(xs[w*len(xs)/n:(w+1)*len(xs)/n], q)
	}
	return quantile(per, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile (nearest rank) of xs without
// reordering it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	if len(xs) == 0 {
		return 0
	}
	return m
}
