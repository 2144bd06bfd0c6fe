package main

import (
	"net"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// connCounter counts the bytes and Write calls of every client connection
// it dials; the benchmark passes its dial method as the wire client's
// Dialer, so the program itself is unchanged.
type connCounter struct {
	bytes  atomic.Int64
	writes atomic.Int64
}

func (c *connCounter) dial(network, addr string) (net.Conn, error) {
	conn, err := net.DialTimeout(network, addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: c}, nil
}

type countingConn struct {
	net.Conn
	c *connCounter
}

func (cc *countingConn) Read(b []byte) (int, error) {
	n, err := cc.Conn.Read(b)
	cc.c.bytes.Add(int64(n))
	return n, err
}

func (cc *countingConn) Write(b []byte) (int, error) {
	n, err := cc.Conn.Write(b)
	cc.c.bytes.Add(int64(n))
	cc.c.writes.Add(1)
	return n, err
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeMark is a point-in-time reading of the process's runtime counters.
type runtimeMark struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
	numGC uint32
	pause [256]uint64
}

func markRuntime() runtimeMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeMark{at: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc, numGC: ms.NumGC, pause: ms.PauseNs}
}

// runtimeDelta is what the process spent between two marks.
type runtimeDelta struct {
	wall       time.Duration
	cpuBusy    float64 // CPU time / (wall × nproc)
	allocBytes uint64
	gcCycles   uint32
	pauseP99us float64
}

func diffRuntime(a, b runtimeMark) runtimeDelta {
	d := runtimeDelta{
		wall:       b.at.Sub(a.at),
		allocBytes: b.alloc - a.alloc,
		gcCycles:   b.numGC - a.numGC,
	}
	d.cpuBusy = ratio(float64(b.cpu-a.cpu), float64(d.wall)*float64(runtime.NumCPU()))
	// PauseNs is a ring of the last 256 pauses; GC cycle k sits at
	// (k+255)%256. Cycles older than the ring are lost.
	var pauses []float64
	for k := b.numGC; k > a.numGC && b.numGC-k < 256; k-- {
		pauses = append(pauses, float64(b.pause[(k+255)%256])/1e3)
	}
	sort.Float64s(pauses)
	d.pauseP99us = percentile(pauses, 99)
	return d
}

// sampler polls the Go heap and a workload-supplied probe at a fixed
// interval during a timed phase, for peaks and maxima that end-of-phase
// snapshots miss.
type sampler struct {
	stop chan struct{}
	done chan struct{}

	mu       sync.Mutex
	heapPeak uint64
}

const sampleEvery = 5 * time.Millisecond

// startSampler begins polling; probe (which may be nil) runs on every tick
// from the sampler's goroutine. stopSampler waits for that goroutine.
func startSampler(probe func()) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			v := sample[0].Value.Uint64()
			s.mu.Lock()
			if v > s.heapPeak {
				s.heapPeak = v
			}
			s.mu.Unlock()
		}
		if probe != nil {
			probe()
		}
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		tick()
		for {
			select {
			case <-s.stop:
				tick()
				return
			case <-t.C:
				tick()
			}
		}
	}()
	return s
}

// stopSampler stops polling and returns the peak heap in bytes.
func (s *sampler) stopSampler() uint64 {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heapPeak
}
