package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/server"
	"repro/internal/wire"
)

// ladderEvery is the sampling stride of the traced run: every ladderEvery-th
// operation of each client also walks the ladder of in-process calls below
// its wire call. It is odd so that a client alternating two operation
// kinds samples both.
const ladderEvery = 3

// rec collects one client's measurements during a phase.
type rec struct {
	lat       map[string]latencies
	ops       int
	failed    int
	batchDocs int
	docsSaved int // documents created or updated, batch members included
	ftRatio   []float64
}

func newRec() *rec { return &rec{lat: make(map[string]latencies)} }

func (r *rec) add(kind string, d time.Duration) { r.lat[kind] = append(r.lat[kind], d) }

func (r *rec) merge(o *rec) {
	for k, v := range o.lat {
		r.lat[k] = append(r.lat[k], v...)
	}
	r.ops += o.ops
	r.failed += o.failed
	r.batchDocs += o.batchDocs
	r.docsSaved += o.docsSaved
	r.ftRatio = append(r.ftRatio, o.ftRatio...)
}

// opFailed counts a failed client call and reports the first few.
func (r *rec) opFailed(what string, err error) {
	r.ops++
	r.failed++
	if r.failed <= 3 {
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
	}
}

// step is one client's loop body: it issues one operation (and, when
// tracer is non-nil and ladder is true, that operation's ladder).
type step func(r *rec, tr *tracer, ladder bool)

// mix is what a set-up returns: the two client loops plus the hooks
// the phase runner and the final checks need.
type mix interface {
	loops() []step
	// verify runs the end-of-run correctness checks, untimed.
	verify()
	// sampleNotes returns documents of the workload's own corpus for the
	// standalone layer probes.
	sampleNotes() []*nsf.Note
	// scanFormulas returns the selection formulas the workload evaluates.
	scanFormulas() []string
}

// bench is one set-up of a workload: servers, client connections, and the
// correctness checker.
type bench struct {
	name  string
	seed  int64
	base  string
	cc    *connCounter
	nodes []*node // nodes[0] is the primary the clients talk to
	conns []*wire.Client
	chk   *checker
	times setupTimes
	w     mix

	// lagMu guards lag, the replica-lag samples the mate's change
	// subscriber records while a phase runs (nil between phases).
	lagMu sync.Mutex
	lag   latencies
}

func (b *bench) primary() *core.Database { return b.nodes[0].db }

// close stops every client and server of the set-up.
func (b *bench) close() {
	for _, c := range b.conns {
		c.Close()
	}
	for _, n := range b.nodes {
		if err := n.srv.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: closing %s: %v\n", n.srv.Name(), err)
		}
	}
	if err := os.RemoveAll(b.base); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing %s: %v\n", b.base, err)
	}
}

// phaseResult is everything one timed phase measured.
type phaseResult struct {
	wall time.Duration
	all  *rec // every sample of the phase, both clients and replica lag

	heapPeak uint64
	rt       runtimeDelta

	wireBytes, wireWrites int64

	dispatched, sheds, deadlineSheds uint64
	queuedMax                        int
	ewmaUs                           []float64
	clusterDropped                   int

	cacheHits, cacheMisses uint64
	gcFlushes, gcRecords   uint64
	walBytes               int64
	dirtyMax               int
	feedMaxLag             uint64
	resyncs                uint64
	applies                map[string]uint64
}

func (p *phaseResult) opsPerSec() float64 {
	return ratio(float64(p.all.ops-p.all.failed), p.wall.Seconds())
}

// counterMark is a snapshot of the public stats surfaces.
type counterMark struct {
	health  server.Health
	dropped int
	stats   core.Stats
	bytes   int64
	writes  int64
}

func (b *bench) mark() counterMark {
	dropped := 0
	for _, d := range b.nodes[0].srv.DroppedByMate() {
		dropped += d
	}
	return counterMark{
		health:  b.nodes[0].srv.Health(),
		dropped: dropped,
		stats:   b.primary().Stats(),
		bytes:   b.cc.bytes.Load(),
		writes:  b.cc.writes.Load(),
	}
}

// runPhase drives the workload's client loops as a closed loop for d and
// returns what it measured. With tr non-nil, a fixed sample of operations
// also walks its ladder.
func (b *bench) runPhase(d time.Duration, tr *tracer) *phaseResult {
	res := &phaseResult{applies: map[string]uint64{}}
	db := b.primary()
	srv := b.nodes[0].srv
	var (
		pmu     sync.Mutex
		prevWAL int64
	)
	probe := func() {
		h := srv.Health()
		st := db.Stats()
		pmu.Lock()
		defer pmu.Unlock()
		res.queuedMax = max(res.queuedMax, h.Queued)
		res.ewmaUs = append(res.ewmaUs, float64(h.Latency)/float64(time.Microsecond))
		res.dirtyMax = max(res.dirtyMax, st.DirtyPages)
		res.feedMaxLag = max(res.feedMaxLag, st.Feed.MaxLag)
		// The WAL shrinks at every checkpoint; sum its growth between
		// samples. Bytes logged between the last sample and a checkpoint
		// are missed, so this is a lower bound.
		if st.WALBytes >= prevWAL {
			res.walBytes += st.WALBytes - prevWAL
		} else {
			res.walBytes += st.WALBytes
		}
		prevWAL = st.WALBytes
	}

	b.lagMu.Lock()
	b.lag = latencies{}
	b.lagMu.Unlock()
	before := b.mark()
	prevWAL = before.stats.WALBytes
	rt0 := markRuntime()
	smp := startSampler(probe)

	loops := b.w.loops()
	recs := make([]*rec, len(loops))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, loop := range loops {
		recs[i] = newRec()
		wg.Add(1)
		go func(r *rec, loop step) {
			defer wg.Done()
			for n := 1; time.Now().Before(deadline); n++ {
				loop(r, tr, tr != nil && n%ladderEvery == 0)
			}
		}(recs[i], loop)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.heapPeak = smp.stopSampler()
	res.rt = diffRuntime(rt0, markRuntime())
	after := b.mark()

	res.all = newRec()
	for _, r := range recs {
		res.all.merge(r)
	}
	b.lagMu.Lock()
	res.all.lat["replica_lag"] = b.lag
	b.lag = nil
	b.lagMu.Unlock()

	res.wireBytes = after.bytes - before.bytes
	res.wireWrites = after.writes - before.writes
	res.dispatched = after.health.Dispatched - before.health.Dispatched
	res.sheds = after.health.Sheds - before.health.Sheds
	res.deadlineSheds = after.health.DeadlineSheds - before.health.DeadlineSheds
	res.clusterDropped = after.dropped - before.dropped
	res.cacheHits = after.stats.NoteCacheHits - before.stats.NoteCacheHits
	res.cacheMisses = after.stats.NoteCacheMisses - before.stats.NoteCacheMisses
	res.gcFlushes = after.stats.GroupCommitFlushes - before.stats.GroupCommitFlushes
	res.gcRecords = after.stats.GroupCommitRecords - before.stats.GroupCommitRecords
	prev := map[string]uint64{}
	for _, s := range before.stats.Feed.Subscribers {
		prev[s.Name] = s.Applies
		res.resyncs -= s.Resyncs
	}
	for _, s := range after.stats.Feed.Subscribers {
		res.applies[s.Name] = s.Applies - prev[s.Name]
		res.resyncs += s.Resyncs
	}
	return res
}

// recordLag adds one replica-lag sample if a phase is running.
func (b *bench) recordLag(d time.Duration) {
	b.lagMu.Lock()
	defer b.lagMu.Unlock()
	if b.lag != nil {
		b.lag = append(b.lag, d)
	}
}
