package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"time"

	domino "repro"
)

// T8 — change-propagation latency: a hot mesh link (the cluster sugar,
// which ships each change directly) vs a cold link replicating on a fixed
// interval. The claim: clustering delivers saves to the mate in
// milliseconds, while a scheduled replicator's expected latency is half its
// interval — which is why Domino clusters push.

// t8Interval is the cold link's replication interval.
const t8Interval = 400 * time.Millisecond

type twoServers struct {
	a, b         *domino.Server
	dbA, dbB     *domino.Database
	aAddr, bAddr string
	cleanup      func()
}

// newTwoServers boots alpha and beta sharing apps/t8.nsf. alpha reaches
// beta over the cluster link when hot is set, else over a cold link.
func newTwoServers(hot bool) *twoServers {
	base, err := os.MkdirTemp("", "domino-t8")
	if err != nil {
		log.Fatal(err)
	}
	d := domino.NewDirectory()
	d.AddUser(domino.User{Name: "ada", Secret: "pw"})
	d.AddUser(domino.User{Name: "alpha", Secret: "sa"})
	d.AddUser(domino.User{Name: "beta", Secret: "sb"})
	mk := func(name, secret string) *domino.Server {
		s, err := domino.NewServer(domino.ServerOptions{
			Name: name, DataDir: filepath.Join(base, name),
			Directory: d, PeerSecret: secret,
		})
		if err != nil {
			log.Fatal(err)
		}
		return s
	}
	ts := &twoServers{a: mk("alpha", "sa"), b: mk("beta", "sb")}
	ts.aAddr, err = ts.a.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ts.bAddr, err = ts.b.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	replica := domino.NewReplicaID()
	ts.dbA, err = ts.a.OpenDB("apps/t8.nsf", domino.Options{Title: "t8", ReplicaID: replica})
	if err != nil {
		log.Fatal(err)
	}
	ts.dbB, err = ts.b.OpenDB("apps/t8.nsf", domino.Options{Title: "t8", ReplicaID: replica})
	if err != nil {
		log.Fatal(err)
	}
	ts.dbA.ACL().Set("beta", domino.Editor)
	ts.dbB.ACL().Set("alpha", domino.Editor)
	if hot {
		ts.a.EnableClustering(map[string]string{"beta": ts.bAddr})
	} else {
		ts.a.SetPeers(map[string]string{"beta": ts.bAddr})
		m, err := ts.a.EnableMesh(domino.MeshOptions{})
		if err != nil {
			log.Fatal(err)
		}
		err = m.Add(domino.MeshLink{Name: "t8-cold", Peer: "beta", Glob: "apps/t8.nsf", Interval: t8Interval})
		if err != nil {
			log.Fatal(err)
		}
	}
	ts.cleanup = func() {
		ts.a.Close()
		ts.b.Close()
		os.RemoveAll(base)
	}
	return ts
}

// measurePropagation creates docs on A and returns per-doc latencies until
// each is visible on B.
func measurePropagation(ts *twoServers, docs int, spacing time.Duration) []time.Duration {
	sess := ts.dbA.Session("ada")
	latencies := make([]time.Duration, 0, docs)
	for i := 0; i < docs; i++ {
		n := domino.NewDocument()
		n.SetText("Subject", fmt.Sprintf("t8 doc %d", i))
		start := time.Now()
		if err := sess.Create(n); err != nil {
			log.Fatal(err)
		}
		deadline := start.Add(10 * time.Second)
		for {
			if _, err := ts.dbB.RawGet(n.OID.UNID); err == nil {
				latencies = append(latencies, time.Since(start))
				break
			}
			if time.Now().After(deadline) {
				latencies = append(latencies, 10*time.Second)
				break
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(spacing)
	}
	return latencies
}

func percentile(ds []time.Duration, p float64) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

func runT8(quick bool) {
	docs := pick(quick, 12, 5)

	ts := newTwoServers(true)
	pushLat := measurePropagation(ts, docs, 20*time.Millisecond)
	ts.cleanup()

	ts = newTwoServers(false)
	schedLat := measurePropagation(ts, docs, 50*time.Millisecond)
	ts.cleanup()

	t := newTable("mode", "docs", "median latency ms", "p95 ms")
	t.add("cluster (hot link)", docs, ms(percentile(pushLat, 0.5)), ms(percentile(pushLat, 0.95)))
	t.add(fmt.Sprintf("cold link (every %s)", t8Interval), docs,
		ms(percentile(schedLat, 0.5)), ms(percentile(schedLat, 0.95)))
	t.print()
	fmt.Println("  (shape check: push delivers in milliseconds; scheduled latency centers")
	fmt.Println("   on ~half the replication interval)")
}
