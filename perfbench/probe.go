package main

// Host-speed probes. The host this benchmark runs on drifts: the same
// build's hit-path throughput moves by a third between quarter hours. A
// probe runs a fixed piece of work written here, never changed with the
// program, between load slices; the ratio of its rate to a reference rate
// is the host's speed for that kind of work, and wall figures measured
// next to it are scaled by that ratio. Each workload is scaled by the
// probe whose work tracked its own in measurement (NOTES.md): what tracks a
// cache hit (an HTTP round trip with JSON) does not track Algorithm 1
// (floating point), and the other way round.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"
)

// probeDur is how long one probe measurement runs.
const probeDur = 100 * time.Millisecond

// prober measures one kind of work's rate on this host.
type prober struct {
	ref   float64        // reference rate, near a 2-vCPU x86-64 VM's
	rate  func() float64 // one measurement over probeDur
	close func()         // releases the probe's resources
	seen  []float64      // every measurement, for host.probe_rate
}

// measure runs the probe once and records the rate.
func (p *prober) measure() float64 {
	r := p.rate()
	p.seen = append(p.seen, r)
	return r
}

// factor is the host speed across a stretch of work bracketed by the
// measurements before and after it, relative to the reference: below 1 on
// a slow host. A wall time measured there is multiplied by it, a rate
// divided by it, which expresses both at reference speed.
func (p *prober) factor(before, after float64) float64 {
	return (before + after) / 2 / p.ref
}

// mean is the mean rate over every measurement so far.
func (p *prober) mean() float64 {
	var s float64
	for _, r := range p.seen {
		s += r / float64(len(p.seen))
	}
	return s
}

// probeSink defeats dead-code elimination of the cpu probe's chain.
var probeSink float64

// cpuProbe runs a serial floating-point multiply-add chain on every
// thread: the shape of Algorithm 1's reverse walk and the stepper's loop.
func cpuProbe() *prober {
	return &prober{ref: 6e8, close: func() {}, rate: func() float64 {
		threads := runtime.GOMAXPROCS(0)
		counts := make([]float64, threads)
		sinks := make([]float64, threads)
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(probeDur)
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				x, n := 1.0, 0
				for time.Now().Before(deadline) {
					for j := 0; j < 4096; j++ {
						x = x*1.0000001 + float64(j&7)
					}
					n += 4096
				}
				counts[t], sinks[t] = float64(n), x
			}(t)
		}
		wg.Wait()
		el := time.Since(start).Seconds()
		var sum float64
		for t, c := range counts {
			sum += c
			probeSink += sinks[t]
		}
		return sum / el
	}}
}

// refDoc is the reference services' request and response body.
type refDoc struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

var refBody = func() []byte {
	d := refDoc{Name: "reference"}
	for i := 0; i < 64; i++ {
		d.Values = append(d.Values, float64(i)*0.001234)
	}
	b, err := json.Marshal(d)
	if err != nil {
		panic(err) // a constant document always encodes
	}
	return b
}()

// refService is a trivial JSON echo service on loopback: the shape of a
// culpeod request without any of culpeod.
func refService() (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		var d refDoc
		if err == nil {
			err = json.Unmarshal(b, &d)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		out, _ := json.Marshal(d) // d was decoded from valid JSON
		w.Write(out)
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = hs.Close()
		<-done
	}, nil
}

// closedLoopRate drives url with clients closed-loop clients for probeDur
// and returns requests per second.
func closedLoopRate(c *http.Client, url string, clients int) float64 {
	var wg sync.WaitGroup
	counts := make([]int, clients)
	start := time.Now()
	deadline := start.Add(probeDur)
	for t := 0; t < clients; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				if _, err := post(c, url, refBody, &buf); err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: probe: %v\n", err)
					return
				}
				counts[t]++
			}
		}(t)
	}
	wg.Wait()
	n := 0
	for _, k := range counts {
		n += k
	}
	return float64(n) / time.Since(start).Seconds()
}

// httpProbe drives the reference echo service closed-loop from nproc
// clients: HTTP over loopback, JSON and allocation, the work of a cache
// hit minus culpeod's own code.
func httpProbe() (*prober, error) {
	url, stop, err := refService()
	if err != nil {
		return nil, err
	}
	c := newClient()
	n := runtime.GOMAXPROCS(0)
	return &prober{ref: 1.6e4, close: func() { c.CloseIdleConnections(); stop() },
		rate: func() float64 { return closedLoopRate(c, url, n) }}, nil
}
