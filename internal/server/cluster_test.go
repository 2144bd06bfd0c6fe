package server

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/nsf"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestClusterPushReplication(t *testing.T) {
	tn := newTestNet(t)
	replica := nsf.NewReplicaID()
	hubDB, err := tn.hub.OpenDB("apps/clustered.nsf", core.Options{Title: "c", ReplicaID: replica})
	if err != nil {
		t.Fatal(err)
	}
	spokeDB, err := tn.spoke.OpenDB("apps/clustered.nsf", core.Options{Title: "c", ReplicaID: replica})
	if err != nil {
		t.Fatal(err)
	}
	hubDB.ACL().Set("spoke", acl.Editor)
	spokeDB.ACL().Set("hub", acl.Editor)
	// Hub pushes events to spoke as they happen.
	tn.hub.EnableClustering(map[string]string{"spoke": tn.spokeAddr})

	sess := hubDB.Session("admin")
	var unids []nsf.UNID
	for i := 0; i < 20; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("pushed %d", i))
		if err := sess.Create(n); err != nil {
			t.Fatal(err)
		}
		unids = append(unids, n.OID.UNID)
	}
	waitFor(t, "cluster push of creates", func() bool {
		n := 0
		spokeDB.ScanAll(func(x *nsf.Note) bool {
			if x.Class == nsf.ClassDocument && !x.IsStub() {
				n++
			}
			return true
		})
		return n == 20
	})
	// Updates and deletes push too.
	doc, _ := sess.Get(unids[0])
	doc.SetText("Subject", "pushed update")
	if err := sess.Update(doc); err != nil {
		t.Fatal(err)
	}
	if err := sess.Delete(unids[1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cluster push of update", func() bool {
		n, err := spokeDB.RawGet(unids[0])
		return err == nil && n.Text("Subject") == "pushed update"
	})
	waitFor(t, "cluster push of delete", func() bool {
		n, err := spokeDB.RawGet(unids[1])
		return err == nil && n.IsStub()
	})
	if d := tn.hub.DroppedByMate()["spoke"]; d != 0 {
		t.Errorf("cluster dropped %d events", d)
	}
}

func TestClusterDatabaseOpenedAfterEnable(t *testing.T) {
	tn := newTestNet(t)
	replica := nsf.NewReplicaID()
	// Enable clustering before the database exists on the hub.
	tn.hub.EnableClustering(map[string]string{"spoke": tn.spokeAddr})
	spokeDB, err := tn.spoke.OpenDB("apps/late.nsf", core.Options{Title: "late", ReplicaID: replica})
	if err != nil {
		t.Fatal(err)
	}
	spokeDB.ACL().Set("hub", acl.Editor)
	hubDB, err := tn.hub.OpenDB("apps/late.nsf", core.Options{Title: "late", ReplicaID: replica})
	if err != nil {
		t.Fatal(err)
	}
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", "late doc")
	if err := hubDB.Session("admin").Create(n); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "push on late-opened db", func() bool {
		_, err := spokeDB.RawGet(n.OID.UNID)
		return err == nil
	})
}

func TestCatalogRefresh(t *testing.T) {
	tn := newTestNet(t)
	if _, err := tn.hub.OpenDB("apps/one.nsf", core.Options{Title: "One"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.hub.OpenDB("apps/two.nsf", core.Options{Title: "Two"}); err != nil {
		t.Fatal(err)
	}
	written, err := tn.hub.RefreshCatalog()
	if err != nil {
		t.Fatalf("RefreshCatalog: %v", err)
	}
	// mail.box + ada's mail file (created lazily? not yet) + one + two.
	if written < 3 {
		t.Errorf("catalog wrote %d entries", written)
	}
	cat, ok := tn.hub.DB(CatalogPath)
	if !ok {
		t.Fatal("catalog database missing")
	}
	titles := make(map[string]string)
	cat.ScanAll(func(n *nsf.Note) bool {
		if n.Text("Form") == "Catalog" {
			titles[n.Text("Path")] = n.Text("Title")
		}
		return true
	})
	if titles["apps/one.nsf"] != "One" || titles["apps/two.nsf"] != "Two" {
		t.Errorf("catalog entries = %v", titles)
	}
	// Refresh is idempotent: same entry count, updated in place.
	before := cat.Count()
	if _, err := tn.hub.RefreshCatalog(); err != nil {
		t.Fatal(err)
	}
	if cat.Count() != before {
		t.Errorf("catalog grew on refresh: %d -> %d", before, cat.Count())
	}
}
