package main

// Measurement machinery shared by every workload: latency samples with
// failure accounting, the tail-percentile rule, windows, closed-loop
// slices, timed repetitions and heap readings.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// failMs is the latency a failed operation is recorded at: the client
// timeout, which is beyond any latency limit a percentile could be held to.
// A refused (503), timed-out or mismatched operation therefore lands above
// every percentile instead of vanishing from the distribution.
const failMs = 10_000

// opTimeout is the HTTP client timeout behind failMs.
const opTimeout = failMs * time.Millisecond

// samples is one metric's per-operation values in milliseconds.
type samples struct {
	v      []float64
	failed int
}

func (s *samples) ok(ms float64) { s.v = append(s.v, ms) }

// fail records a failed operation: counted, and sampled at failMs.
func (s *samples) fail() {
	s.v = append(s.v, failMs)
	s.failed++
}

func (s *samples) merge(o *samples) {
	s.v = append(s.v, o.v...)
	s.failed += o.failed
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	r := rank(q, len(sorted)) - 1
	if r < 0 {
		r = 0
	}
	return sorted[r]
}

// rank is the 1-based nearest rank of quantile q in n samples. The small
// slack keeps q*n that lands on an integer from rounding up past it
// (0.999 * 10000 is 9990.000000000002 in floating point).
func rank(q float64, n int) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

// tailLadder lists the percentiles the tail metric may report, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile picks the highest ladder percentile that leaves at least
// ten samples strictly beyond its rank in n samples. ok is false when n is
// too small for any of them (n < 20).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rank(p/100, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// bin is the samples of one load slice with the wall time it covered and
// the host speed factor measured around it.
type bin struct {
	s      samples // raw milliseconds
	good   int     // operations that completed correctly
	wall   float64 // seconds
	factor float64 // the probe's speed factor around the bin
}

// windowMin is the fewest samples a window holds.
const windowMin = 100

// window is a run of consecutive bins merged until it holds windowMin
// samples, with probe scaling applied per bin.
type window struct {
	s    samples
	good int
	wall float64
}

func mergeWindows(bins []bin, scaled bool) []window {
	var out []window
	var cur window
	add := func(w *window, b bin) {
		f := 1.0
		if scaled {
			f = b.factor
		}
		for _, v := range b.s.v {
			if v == failMs {
				w.s.fail()
			} else {
				w.s.ok(v * f)
			}
		}
		w.good += b.good
		w.wall += b.wall * f
	}
	for _, b := range bins {
		add(&cur, b)
		if len(cur.s.v) >= windowMin {
			out = append(out, cur)
			cur = window{}
		}
	}
	if len(cur.s.v) > 0 {
		if len(out) == 0 {
			out = append(out, cur)
		} else { // a short remainder joins the last window
			last := &out[len(out)-1]
			last.s.merge(&cur.s)
			last.good += cur.good
			last.wall += cur.wall
		}
	}
	return out
}

// windowed is a run's figures as medians over its windows: each window's
// median, its tail at one percentile for all windows (the rule applied to
// the smallest window), and its throughput.
type windowed struct {
	p50, tail, tailPct, rate float64
	windows, n, failed       int
}

// summarizeWindows computes windowed figures; opsPer converts completed
// operations into the unit of work rate counts.
func summarizeWindows(bins []bin, scaled bool, opsPer float64) windowed {
	ws := mergeWindows(bins, scaled)
	out := windowed{windows: len(ws)}
	if len(ws) == 0 {
		return windowed{p50: math.NaN(), tail: math.NaN(), rate: math.NaN()}
	}
	smallest := len(ws[0].s.v)
	for _, w := range ws {
		smallest = min(smallest, len(w.s.v))
		out.n += len(w.s.v)
		out.failed += w.s.failed
	}
	pct, ok := tailPercentile(smallest)
	if !ok {
		pct = 100
	}
	out.tailPct = pct
	var p50s, tails, rates []float64
	for _, w := range ws {
		v := append([]float64(nil), w.s.v...)
		sort.Float64s(v)
		p50s = append(p50s, quantile(v, 0.5))
		tails = append(tails, quantile(v, pct/100))
		if w.wall > 0 {
			rates = append(rates, float64(w.good)*opsPer/w.wall)
		}
	}
	out.p50, out.tail, out.rate = median(p50s), median(tails), median(rates)
	return out
}

// median of a small set (setup repetitions, window figures).
func median(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if len(c) == 0 {
		return math.NaN()
	}
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- closed loops, repetitions and memory ---------------------------------

// sliceDur is one closed-loop load slice between two probes.
const sliceDur = 400 * time.Millisecond

// clientLog is one closed-loop client's record: per-operation latency,
// time to response headers, and the load slice it ran in.
type clientLog struct {
	lat, hdr []float64
	slice    []int32
	failed   int
	ops      int
}

func newClientLog(capacity int) *clientLog {
	return &clientLog{
		lat:   make([]float64, 0, capacity),
		hdr:   make([]float64, 0, capacity),
		slice: make([]int32, 0, capacity),
	}
}

func (l *clientLog) record(slice int, start time.Time, r reply, ok bool) {
	l.ops++
	l.slice = append(l.slice, int32(slice))
	if !ok {
		l.failed++
		l.lat = append(l.lat, failMs)
		l.hdr = append(l.hdr, failMs)
		return
	}
	l.lat = append(l.lat, ms(r.done.Sub(start)))
	l.hdr = append(l.hdr, ms(r.headers.Sub(start)))
}

// fail marks operation i, recorded as served, as failed: its response did
// not check. Its latency becomes the failure value.
func (l *clientLog) fail(i int) {
	if l.lat[i] == failMs {
		return
	}
	l.failed++
	l.lat[i], l.hdr[i] = failMs, failMs
}

// slicedLoop runs closed-loop clients for about dur of load, split into
// sliceDur slices with a probe before each slice and after the last. op
// performs one operation for client c in slice s; after, if not nil, runs
// once each slice has ended, outside its wall time and allocation count.
// It returns each slice's wall time, the probe rates (one more than
// slices) and the bytes allocated during the slices.
func slicedLoop(p *prober, dur time.Duration, clients int, op func(c, s int), after func(s int)) (durs []time.Duration, rates []float64, alloc uint64) {
	n := int(dur / (sliceDur + probeDur))
	if n < 1 {
		n = 1
	}
	for s := 0; s < n; s++ {
		rates = append(rates, p.measure())
		a0 := totalAlloc()
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for time.Since(t0) < sliceDur {
					op(c, s)
				}
			}(c)
		}
		wg.Wait()
		durs = append(durs, time.Since(t0))
		alloc += totalAlloc() - a0
		if after != nil {
			after(s)
		}
	}
	rates = append(rates, p.measure())
	return durs, rates, alloc
}

// sliceBins splits client logs into one bin per load slice, holding each
// operation's latency, or with hdr its time to response headers.
func sliceBins(p *prober, logs []*clientLog, durs []time.Duration, rates []float64, hdr bool) []bin {
	bins := make([]bin, len(durs))
	for i, d := range durs {
		bins[i].wall = d.Seconds()
		bins[i].factor = p.factor(rates[i], rates[i+1])
	}
	for _, l := range logs {
		for k, v := range l.lat {
			b := &bins[l.slice[k]]
			if v == failMs {
				b.s.fail()
				continue
			}
			if hdr {
				v = l.hdr[k]
			}
			b.s.ok(v)
			b.good++
		}
	}
	return bins
}

// closedLoop is a closed-loop run's figures, probe-scaled and raw.
type closedLoop struct {
	ops, failed              int
	lat, hdr, rawLat, rawHdr windowed
	factors                  [2]float64 // slowest and fastest slice
	probe                    float64    // mean probe rate over the run
}

func summarizeClosed(p *prober, logs []*clientLog, durs []time.Duration, rates []float64, opsPer float64) closedLoop {
	lb, hb := sliceBins(p, logs, durs, rates, false), sliceBins(p, logs, durs, rates, true)
	c := closedLoop{
		lat: summarizeWindows(lb, true, opsPer), rawLat: summarizeWindows(lb, false, opsPer),
		hdr: summarizeWindows(hb, true, opsPer), rawHdr: summarizeWindows(hb, false, opsPer),
		factors: [2]float64{math.Inf(1), math.Inf(-1)},
	}
	for _, l := range logs {
		c.ops += l.ops
		c.failed += l.failed
	}
	for _, b := range lb {
		c.factors[0] = math.Min(c.factors[0], b.factor)
		c.factors[1] = math.Max(c.factors[1], b.factor)
	}
	c.probe = p.mean()
	return c
}

// report stores the closed-loop figures, scaled and raw, into rep.
func (c closedLoop) report(rep *report) {
	rep.e2e["ops_per_s"], rep.layer["raw.ops_per_s"] = c.lat.rate, c.rawLat.rate
	rep.e2e["p50_ms"], rep.layer["raw.p50_ms"] = c.lat.p50, c.rawLat.p50
	rep.e2e["tail_ms"], rep.layer["raw.tail_ms"] = c.lat.tail, c.rawLat.tail
	rep.e2e["event_p50_ms"], rep.layer["raw.event_p50_ms"] = c.hdr.p50, c.rawHdr.p50
	rep.e2e["event_tail_ms"], rep.layer["raw.event_tail_ms"] = c.hdr.tail, c.rawHdr.tail
	rep.layer["bench.tail_pct"], rep.layer["bench.event_tail_pct"] = c.lat.tailPct, c.hdr.tailPct
	rep.layer["host.probe_rate"] = c.probe
	rep.lines = append(rep.lines, fmt.Sprintf("%d ops (%d failed) in %d windows; tail_ms is the median window p%g, event_tail_ms p%g; slice speed factors %.3f..%.3f",
		c.ops, c.failed, c.lat.windows, c.lat.tailPct, c.hdr.tailPct, c.factors[0], c.factors[1]))
}

// timedRepeat runs fn reps times, each after a forced collection so no
// earlier garbage is collected on its clock, with a probe before the first
// and after the last, and returns the median scaled and raw durations. fn
// returns a cleanup for what it built; each cleanup runs untimed before the
// next repetition, and the last one is returned to the caller.
func timedRepeat(p *prober, reps int, fn func(i int) (cleanup func(), err error)) (scaled, raw float64, last func(), err error) {
	var rw []float64
	last = func() {}
	before := p.measure()
	for i := 0; i < reps; i++ {
		last()
		runtime.GC()
		t0 := time.Now()
		cleanup, err := fn(i)
		rw = append(rw, time.Since(t0).Seconds())
		if cleanup != nil {
			last = cleanup
		} else {
			last = func() {}
		}
		if err != nil {
			last()
			return 0, 0, nil, err
		}
	}
	raw = median(rw)
	return raw * p.factor(before, p.measure()), raw, last, nil
}

// liveHeap is the live heap after forced collections (two, so objects
// parked in sync.Pool caches are gone too).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// serverHeap is the live heap a running server holds: the live heap with
// it up minus the live heap once stop has released it and every reference
// to it, everything else in the process unchanged between the two
// readings. Its connections are closed first (liveServer.disconnect), or
// their buffers would count.
func serverHeap(stop func()) float64 {
	up := liveHeap()
	stop()
	down := liveHeap()
	if up < down {
		return 0
	}
	return float64(up - down)
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
