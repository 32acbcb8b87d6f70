package engine_test

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lbe/internal/engine"
	"lbe/internal/oracle"
)

// TestSavePartitionedRejectsBadShapes covers the partitioning error
// paths: out-of-range set counts, re-partitioning a slice, and the
// cluster-directory hint from OpenSession.
func TestSavePartitionedRejectsBadShapes(t *testing.T) {
	c := oracle.CellOf(t, "generated", "open-all")
	peptides := c.Corpus.Peptides
	sess, err := engine.NewSession(peptides, engine.SessionConfig{Config: c.Config(), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	dir := filepath.Join(t.TempDir(), "cluster")
	for _, bad := range []int{0, -1, 4} {
		if _, err := sess.SavePartitioned(dir, peptides, bad); err == nil {
			t.Fatalf("sets=%d: expected an error", bad)
		}
	}
	cm, err := sess.SavePartitioned(dir, peptides, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Opening the cluster directory itself must point at the set layout.
	if _, _, err := engine.OpenSession(dir); err == nil || !strings.Contains(err.Error(), "partitioned cluster") {
		t.Fatalf("opening the cluster dir: %v", err)
	}

	// A slice session cannot be re-partitioned, but saves itself whole
	// with its shard-set identity intact.
	slice, _, err := engine.OpenSession(filepath.Join(dir, cm.SetDirs[1]))
	if err != nil {
		t.Fatal(err)
	}
	defer slice.Close()
	if _, err := slice.SavePartitioned(t.TempDir(), peptides, 1); err == nil {
		t.Fatal("re-partitioning a slice: expected an error")
	}
	resaved := filepath.Join(t.TempDir(), "set")
	if err := slice.Save(resaved, peptides); err != nil {
		t.Fatal(err)
	}
	again, _, err := engine.OpenSession(resaved)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if !reflect.DeepEqual(again.ShardSet(), slice.ShardSet()) {
		t.Fatalf("resaved slice lost its shard-set identity: %+v vs %+v", again.ShardSet(), slice.ShardSet())
	}
}
