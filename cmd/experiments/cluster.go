package main

import (
	"fmt"
	"log"
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

// t8Rig boots alpha and beta sharing apps/t8.nsf. alpha reaches beta over
// the cluster link when hot is set, else over a cold link.
func t8Rig(hot bool) *rig {
	r := newRig(rigSpec{path: "apps/t8.nsf"}, "alpha", "beta")
	alpha := r.srv["alpha"]
	if hot {
		alpha.EnableClustering(map[string]string{"beta": r.addr["beta"]})
		return r
	}
	m, err := alpha.EnableMesh(domino.MeshOptions{})
	if err != nil {
		log.Fatal(err)
	}
	err = m.Add(domino.MeshLink{Name: "t8-cold", Peer: "beta", Glob: "apps/t8.nsf", Interval: t8Interval})
	if err != nil {
		log.Fatal(err)
	}
	return r
}

// measurePropagation creates docs on A and returns per-doc latencies until
// each is visible on B.
func measurePropagation(r *rig, docs int, spacing time.Duration) []time.Duration {
	sess := r.db["alpha"].Session("ada")
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
			if _, err := r.db["beta"].RawGet(n.OID.UNID); err == nil {
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

func runT8(quick bool) {
	docs := pick(quick, 12, 5)

	r := t8Rig(true)
	pushLat := measurePropagation(r, docs, 20*time.Millisecond)
	r.close()

	r = t8Rig(false)
	schedLat := measurePropagation(r, docs, 50*time.Millisecond)
	r.close()

	t := newTable("mode", "docs", "median latency ms", "p95 ms")
	t.add("cluster (hot link)", docs, ms(pct(pushLat, 0.5)), ms(pct(pushLat, 0.95)))
	t.add(fmt.Sprintf("cold link (every %s)", t8Interval), docs,
		ms(pct(schedLat, 0.5)), ms(pct(schedLat, 0.95)))
	t.print()
	fmt.Println("  (shape check: push delivers in milliseconds; scheduled latency centers")
	fmt.Println("   on ~half the replication interval)")
}
