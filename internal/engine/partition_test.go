package engine

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lbe/internal/core"
)

// mergeSetPSMs reproduces the scatter/gather front-end merge at the
// engine level: concatenate every set's per-query PSMs, re-sort with the
// engine comparator, and truncate to topK.
func mergeSetPSMs(parts [][][]PSM, topK int) [][]PSM {
	out := make([][]PSM, len(parts[0]))
	for q := range out {
		merged := make([]PSM, 0)
		for _, p := range parts {
			merged = append(merged, p[q]...)
		}
		sortPSMs(merged)
		if topK > 0 && len(merged) > topK {
			merged = merged[:topK]
		}
		out[q] = merged
	}
	return out
}

// TestSavePartitionedScatterGatherEquivalence is the engine half of the
// tentpole guarantee: for several partition counts, opening every
// shard-set slice of a partitioned store, searching each independently,
// and merging the per-set top-K yields PSMs identical to the whole-store
// Session.Search — global peptide identities, global shard Origins, exact
// scores.
func TestSavePartitionedScatterGatherEquivalence(t *testing.T) {
	peptides, queries, _ := testDataset(t, 8, 2, 40)
	ctx := context.Background()
	cfg := SessionConfig{Config: lightConfig(), Shards: 5}
	cfg.Policy = core.Cyclic
	cfg.TopK = 4 // exercise the per-set top-K union ⊇ global top-K argument

	whole, err := NewSession(peptides, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	want, err := whole.Search(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}

	for _, sets := range []int{1, 2, 3, 5} {
		dir := filepath.Join(t.TempDir(), "cluster")
		cm, err := whole.SavePartitioned(dir, peptides, sets)
		if err != nil {
			t.Fatalf("sets=%d: %v", sets, err)
		}
		if cm.Sets != sets || cm.TotalShards != 5 || len(cm.SetDirs) != sets {
			t.Fatalf("sets=%d: cluster manifest shape %+v", sets, cm)
		}
		if cm.ClusterDigest != ComposeClusterDigest(cm.SetDigests) {
			t.Fatalf("sets=%d: cluster digest does not compose", sets)
		}
		if sets == 1 && cm.ClusterDigest != cm.SetDigests[0] {
			// A cluster of one is a plain store: ComposeClusterDigest([d]) == d.
			t.Fatalf("one-set cluster digest %s is not its store's %s", cm.ClusterDigest, cm.SetDigests[0])
		}
		reread, err := ReadClusterManifest(dir)
		if err != nil {
			t.Fatalf("sets=%d: reread cluster manifest: %v", sets, err)
		}
		if !reflect.DeepEqual(reread, cm) {
			t.Fatalf("sets=%d: cluster manifest round-trip differs", sets)
		}

		parts := make([][][]PSM, sets)
		totalShards := 0
		for i := 0; i < sets; i++ {
			slice, peps, err := OpenSession(filepath.Join(dir, cm.SetDirs[i]))
			if err != nil {
				t.Fatalf("sets=%d: open set %d: %v", sets, i, err)
			}
			if !reflect.DeepEqual(peps, peptides) {
				t.Fatalf("sets=%d: set %d peptide list is not the global list", sets, i)
			}
			info := slice.ShardSet()
			if info.Set != i || info.Sets != sets || info.TotalShards != 5 {
				t.Fatalf("sets=%d: set %d shard-set info %+v", sets, i, info)
			}
			if len(info.ShardIDs) != slice.NumShards() {
				t.Fatalf("sets=%d: set %d ids/shards mismatch", sets, i)
			}
			totalShards += slice.NumShards()
			if slice.Digest() != cm.SetDigests[i] {
				t.Fatalf("sets=%d: set %d digest %s, cluster manifest says %s",
					sets, i, slice.Digest(), cm.SetDigests[i])
			}
			res, err := slice.Search(ctx, queries)
			if err != nil {
				t.Fatalf("sets=%d: search set %d: %v", sets, i, err)
			}
			parts[i] = res.PSMs
			slice.Close()
		}
		if totalShards != 5 {
			t.Fatalf("sets=%d: sets hold %d shards, want 5", sets, totalShards)
		}
		requireIdenticalPSMs(t, "merged", mergeSetPSMs(parts, cfg.TopK), want.PSMs)
	}
}

// TestSavePartitionedRejectsBadShapes covers the partitioning error
// paths: out-of-range set counts, re-partitioning a slice, and the
// cluster-directory hint from OpenSession.
func TestSavePartitionedRejectsBadShapes(t *testing.T) {
	peptides, _, _ := testDataset(t, 6, 2, 0)
	cfg := SessionConfig{Config: lightConfig(), Shards: 3}
	sess, err := NewSession(peptides, cfg)
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
	if _, _, err := OpenSession(dir); err == nil || !strings.Contains(err.Error(), "partitioned cluster") {
		t.Fatalf("opening the cluster dir: %v", err)
	}

	// A slice session cannot be re-partitioned, but saves itself whole
	// with its shard-set identity intact.
	slice, _, err := OpenSession(filepath.Join(dir, cm.SetDirs[1]))
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
	again, _, err := OpenSession(resaved)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if !reflect.DeepEqual(again.ShardSet(), slice.ShardSet()) {
		t.Fatalf("resaved slice lost its shard-set identity: %+v vs %+v", again.ShardSet(), slice.ShardSet())
	}
}
