package main

import (
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	domino "repro"
)

// --- W5: availability under node loss and overload ---
//
// The availability layer's two claims, measured end to end:
//
// Phase A: when a cluster mate dies mid-session, a failover client rebinds
// to the survivor within one op's retry window and no acknowledged write is
// lost — every create the client saw succeed is on the survivor after the
// dead mate's file is caught up.
//
// Phase B: under 2x overload, admission control sheds the excess with busy
// responses instead of queueing it, so the latency of *accepted* requests
// stays bounded where the unbounded server's p99 grows with the backlog —
// and once the load stops, the goroutine count returns to its baseline
// (shed work never started, so there is nothing to leak).

// w5Result is one measured configuration, serialized to
// BENCH_availability.json as the regression baseline.
type w5Result struct {
	Phase            string  `json:"phase"`
	Mode             string  `json:"mode,omitempty"`
	Docs             int     `json:"docs,omitempty"`
	Acked            int     `json:"acked,omitempty"`
	LostAcked        int     `json:"lost_acked"`
	FailoverWindowMs float64 `json:"failover_window_ms,omitempty"`
	Failovers        uint64  `json:"failovers,omitempty"`
	Clients          int     `json:"clients,omitempty"`
	MaxInFlight      int     `json:"max_in_flight,omitempty"`
	Accepted         int64   `json:"accepted,omitempty"`
	Sheds            uint64  `json:"sheds,omitempty"`
	GoodputPerSec    float64 `json:"goodput_per_sec,omitempty"`
	AcceptedP50Ms    float64 `json:"accepted_p50_ms,omitempty"`
	AcceptedP99Ms    float64 `json:"accepted_p99_ms,omitempty"`
	GoroutinesBase   int     `json:"goroutines_base,omitempty"`
	GoroutinesAfter  int     `json:"goroutines_after,omitempty"`
}

// w5Failover runs Phase A: a two-mate cluster, a failover client creating
// documents, the primary killed halfway through.
func w5Failover(docs int) w5Result {
	r := newRig(rigSpec{path: "apps/w5.nsf"}, "alpha", "beta")
	defer r.close()
	dbB := r.db["beta"]
	r.srv["alpha"].EnableClustering(map[string]string{"beta": r.addr["beta"]})

	fc, err := domino.DialFailover(r.addrs(), "ada", "pw", domino.FailoverOptions{
		Client: domino.ClientOptions{BackoffBase: 5 * time.Millisecond, DialTimeout: 2 * time.Second},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fc.Close()
	db, err := fc.OpenDB("apps/w5.nsf")
	if err != nil {
		log.Fatal(err)
	}

	killAt := docs / 2
	var acked []domino.UNID
	var window time.Duration
	for i := 0; i < docs; i++ {
		if i == killAt {
			r.kill("alpha")
		}
		n := domino.NewDocument()
		n.SetText("Subject", fmt.Sprintf("w5 doc %d", i))
		start := time.Now()
		if err := db.Create(n); err != nil {
			// Ambiguous create: the ack was lost with the mate. Creates are
			// not idempotent, so the client surfaces the error; the recovery
			// protocol is read-back on the survivor, then re-issue.
			if _, gerr := db.Get(n.OID.UNID); gerr != nil {
				if err2 := db.Create(n); err2 != nil {
					continue // never acknowledged anywhere — not counted
				}
			}
		}
		if i == killAt {
			window = time.Since(start)
		}
		acked = append(acked, n.OID.UNID)
	}

	// Catch up the dead mate's file into the survivor, then check every
	// acknowledged write is there. Writes acked by alpha before the kill
	// were cluster-pushed, but the push is asynchronous — the catch-up
	// replication from the dead file is what a restarted mate (or an admin
	// with its disk) would run.
	reopened, err := domino.Open(filepath.Join(r.dir, "alpha", "apps", "w5.nsf"), domino.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	if _, err := domino.Replicate(reopened, &domino.LocalPeer{DB: dbB}, domino.ReplicationOptions{PeerName: "catchup"}); err != nil {
		log.Fatal(err)
	}
	return w5Result{
		Phase:            "failover",
		Docs:             docs,
		Acked:            len(acked),
		LostAcked:        lostAcked(acked, dbB),
		FailoverWindowMs: float64(window.Nanoseconds()) / 1e6,
		Failovers:        fc.Stats().Failovers,
	}
}

// w5Overload runs Phase B in one admission mode: `clients` connections all
// issuing creates as fast as they can against a server whose in-flight
// pool (if any) is a fraction of that.
func w5Overload(mode string, maxInFlight, clients int, dur time.Duration) w5Result {
	// SyncWAL pins the service rate to the fsync path: writes serialize on
	// the log, so offered load from `clients` connections is a genuine
	// multiple of capacity no matter how many cores the host has.
	r := newRig(rigSpec{path: "apps/w5b.nsf", tweak: func(_ string, o *domino.ServerOptions) {
		o.SyncWAL, o.MaxInFlight, o.AdmitWait = true, maxInFlight, 5*time.Millisecond
	}}, "w5b")
	defer r.close()
	addr := r.addr["w5b"]

	// No client-side retries: a shed must surface (and be counted), not be
	// silently absorbed by backoff.
	copts := domino.ClientOptions{MaxRetries: -1, DialTimeout: 2 * time.Second}
	conns := make([]*domino.Client, clients)
	for i := range conns {
		c, err := domino.DialOptions(addr, "ada", "pw", copts)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	goroBase := runtime.NumGoroutine()

	// Bind every handle before any worker starts: opens go through the same
	// admission gate as everything else, so an open racing the overload
	// would itself be shed.
	rdbs := make([]*domino.RemoteDB, clients)
	for i, c := range conns {
		rdb, err := c.OpenDB("apps/w5b.nsf")
		if err != nil {
			log.Fatal(err)
		}
		rdbs[i] = rdb
	}

	var mu sync.Mutex
	var lats []time.Duration
	var shed uint64
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for i, rdb := range rdbs {
		wg.Add(1)
		go func(i int, rdb *domino.RemoteDB) {
			defer wg.Done()
			var mine []time.Duration
			var myShed uint64
			body := string(make([]byte, 4096))
			for j := 0; time.Now().Before(deadline); j++ {
				n := domino.NewDocument()
				n.SetText("Subject", fmt.Sprintf("w5b %d/%d", i, j))
				n.SetText("Body", body)
				start := time.Now()
				err := rdb.Create(n)
				switch {
				case err == nil:
					mine = append(mine, time.Since(start))
				case isBusy(err):
					myShed++
				default:
					log.Fatal(err)
				}
			}
			mu.Lock()
			lats = append(lats, mine...)
			shed += myShed
			mu.Unlock()
		}(i, rdb)
	}
	wg.Wait()

	res := w5Result{
		Phase:          "overload",
		Mode:           mode,
		Clients:        clients,
		MaxInFlight:    maxInFlight,
		Accepted:       int64(len(lats)),
		Sheds:          shed,
		GoodputPerSec:  float64(len(lats)) / dur.Seconds(),
		GoroutinesBase: goroBase,
	}
	if len(lats) > 0 {
		res.AcceptedP50Ms = float64(pct(lats, 0.50).Nanoseconds()) / 1e6
		res.AcceptedP99Ms = float64(pct(lats, 0.99).Nanoseconds()) / 1e6
	}
	// Shed work never started, so nothing lingers: after the load stops the
	// goroutine count settles back to (at most) its pre-load level.
	for i := 0; i < 100; i++ {
		if res.GoroutinesAfter = runtime.NumGoroutine(); res.GoroutinesAfter <= goroBase {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return res
}

func isBusy(err error) bool {
	var be *domino.BusyError
	return errors.As(err, &be)
}

func runW5(quick bool) {
	// Widen the scheduler so the overload clients genuinely overlap.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	var results []w5Result

	docs := pick(quick, 60, 20)
	fa := w5Failover(docs)
	results = append(results, fa)
	ta := newTable("docs", "acked", "lost acked", "failover window ms", "failovers")
	ta.add(fa.Docs, fa.Acked, fa.LostAcked, fmt.Sprintf("%.1f", fa.FailoverWindowMs), fmt.Sprint(fa.Failovers))
	fmt.Println("  Phase A: kill a cluster mate mid-session (failover client)")
	ta.print()
	if fa.LostAcked != 0 {
		fail("%d acknowledged writes lost — availability invariant violated", fa.LostAcked)
	} else {
		fmt.Println("  (invariant: zero acknowledged writes lost across the node kill)")
	}

	clients := pick(quick, 32, 8)
	maxIF := pick(quick, 4, 2)
	dur := time.Duration(pick(quick, 2000, 500)) * time.Millisecond
	tb := newTable("mode", "clients", "pool", "accepted", "sheds", "goodput/s", "p50 ms", "p99 ms")
	for _, m := range []struct {
		name string
		mif  int
	}{{"admission", maxIF}, {"unbounded", -1}} {
		r := w5Overload(m.name, m.mif, clients, dur)
		results = append(results, r)
		pool := fmt.Sprint(r.MaxInFlight)
		if r.MaxInFlight < 0 {
			pool = "∞"
		}
		tb.add(r.Mode, r.Clients, pool, fmt.Sprint(r.Accepted), fmt.Sprint(r.Sheds),
			fmt.Sprintf("%.0f", r.GoodputPerSec),
			fmt.Sprintf("%.2f", r.AcceptedP50Ms), fmt.Sprintf("%.2f", r.AcceptedP99Ms))
	}
	fmt.Println("  Phase B: 2x+ offered overload, admission control vs unbounded")
	tb.print()
	fmt.Println("  (shape check: admission sheds the excess and keeps accepted p99 near the")
	fmt.Println("   pool's service time; unbounded queues everything and p99 grows with it)")

	benchW5.save(results)
}
