package system

import (
	"context"
	"testing"

	"aion/internal/aion"
	"aion/internal/hostdb"
	"aion/internal/model"
)

func TestCommitFlowsIntoAion(t *testing.T) {
	ctx := context.Background()
	sys, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	var a, b model.NodeID
	ts, err := sys.Host.Run(func(tx *hostdb.Tx) error {
		a, _ = tx.CreateNode([]string{"P"}, nil)
		b, _ = tx.CreateNode([]string{"P"}, nil)
		_, err := tx.CreateRel(a, b, "R", nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Aion.WaitSync(); err != nil {
		t.Fatal(err)
	}
	// The committed changes are visible in both temporal stores at the
	// commit timestamp.
	g, err := sys.Aion.GraphAtContext(ctx, ts)
	if err != nil || g.NodeCount() != 2 || g.RelCount() != 1 {
		t.Fatalf("timestore: %v (%d/%d)", err, g.NodeCount(), g.RelCount())
	}
	ns, err := sys.Aion.GetNodeContext(ctx, a, ts, ts)
	if err != nil || len(ns) != 1 {
		t.Fatalf("lineagestore: %v %v", ns, err)
	}
	// And absent before the commit.
	g0, _ := sys.Aion.GraphAtContext(ctx, ts-1)
	if g0.NodeCount() != 0 {
		t.Error("pre-commit state must be empty")
	}
}

func TestRollbackDoesNotReachAion(t *testing.T) {
	sys, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	tx := sys.Host.Begin()
	tx.CreateNode(nil, nil)
	tx.Rollback()
	sys.Aion.WaitSync()
	if sys.Aion.LatestTimestamp() != 0 {
		t.Error("rolled-back transaction leaked into Aion")
	}
}

func TestDisableTemporal(t *testing.T) {
	sys, err := Open(Options{Dir: t.TempDir(), DisableTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Aion != nil {
		t.Fatal("temporal store should be absent")
	}
	if _, err := sys.Host.Run(func(tx *hostdb.Tx) error {
		_, err := tx.CreateNode(nil, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestLineageOnlyMode(t *testing.T) {
	sys, err := Open(Options{Dir: t.TempDir(),
		Aion: aion.Options{Mode: aion.SyncLineageOnly}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var id model.NodeID
	ts, err := sys.Host.Run(func(tx *hostdb.Tx) error {
		id, _ = tx.CreateNode([]string{"X"}, nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := sys.Aion.LineageStore().GetNodeContext(context.Background(), id, ts, ts)
	if err != nil || len(ns) != 1 {
		t.Fatalf("lineage-only: %v %v", ns, err)
	}
}

func TestManyCommitsOrdering(t *testing.T) {
	sys, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for i := 0; i < 200; i++ {
		if _, err := sys.Host.Run(func(tx *hostdb.Tx) error {
			_, err := tx.CreateNode(nil, nil)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Aion.WaitSync(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Aion.Err(); err != nil {
		t.Fatalf("cascade error (ordering violated?): %v", err)
	}
	g, _ := sys.Aion.GraphAtContext(context.Background(), 200)
	if g.NodeCount() != 200 {
		t.Errorf("nodes = %d", g.NodeCount())
	}
}
