package engine_test

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"lbe/internal/core"
	"lbe/internal/engine"
	"lbe/internal/oracle"
	"lbe/internal/slm"
	"lbe/internal/stats"
)

func TestIdentificationRate(t *testing.T) {
	// The engine must actually identify peptides: for most queries the
	// ground-truth peptide should be among the top PSMs.
	c := oracle.CellOf(t, "generated", "open-all")
	cfg := c.Config()
	cfg.TopK = 5
	sess, err := engine.NewSession(c.Corpus.Peptides, engine.SessionConfig{Config: cfg, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Search(context.Background(), c.Corpus.Queries)
	if err != nil {
		t.Fatal(err)
	}
	truth := c.Corpus.Truth
	hit := 0
	for q := range truth {
		for _, p := range res.PSMs[q] {
			if int(p.Peptide) == truth[q].Peptide {
				hit++
				break
			}
		}
	}
	rate := float64(hit) / float64(len(truth))
	if rate < 0.7 {
		t.Errorf("identification rate %.2f too low (%d/%d)", rate, hit, len(truth))
	}
}

func TestPartitionStatsShape(t *testing.T) {
	c := oracle.CellOf(t, "generated", "open-all")
	const p = 4
	sess, err := engine.NewSession(c.Corpus.Peptides, engine.SessionConfig{Config: c.Config(), Shards: p})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Search(context.Background(), c.Corpus.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != p {
		t.Fatalf("stats for %d ranks, want %d", len(res.Stats), p)
	}
	totalPeps := 0
	for r, s := range res.Stats {
		if s.Rank != r {
			t.Errorf("stats[%d].Rank = %d", r, s.Rank)
		}
		if s.Peptides == 0 || s.Rows < s.Peptides || s.IndexBytes <= 0 {
			t.Errorf("rank %d stats implausible: %+v", r, s)
		}
		totalPeps += s.Peptides
	}
	if totalPeps != len(c.Corpus.Peptides) {
		t.Errorf("partition sizes sum to %d, want %d", totalPeps, len(c.Corpus.Peptides))
	}
	if res.MappingBytes <= 0 || res.Groups <= 0 {
		t.Errorf("result metadata: %+v", res)
	}
	if res.CandidatePSMs() <= 0 {
		t.Error("no candidate PSMs counted")
	}
}

func TestCyclicBeatsChunkOnSkewedLoad(t *testing.T) {
	// The paper's central claim (Fig. 6): with a skewed query workload the
	// cyclic policy's load imbalance is far below chunk's. Work units are
	// deterministic, so this is a stable test, not a flaky timing assert.
	c := oracle.CellOf(t, "generated", "open-all")
	cfg := c.Config()
	const p = 8

	li := map[core.Policy]float64{}
	for _, policy := range []core.Policy{core.Chunk, core.Cyclic} {
		cfg.Policy = policy
		sess, err := engine.NewSession(c.Corpus.Peptides, engine.SessionConfig{Config: cfg, Shards: p})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Search(context.Background(), c.Corpus.Queries)
		sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		li[policy] = stats.LoadImbalance(engine.WorkUnits(res.Stats))
	}
	t.Logf("LI chunk=%.3f cyclic=%.3f", li[core.Chunk], li[core.Cyclic])
	if li[core.Cyclic] >= li[core.Chunk] {
		t.Errorf("cyclic LI %.3f not better than chunk %.3f", li[core.Cyclic], li[core.Chunk])
	}
	if li[core.Cyclic] > 0.25 {
		t.Errorf("cyclic LI %.3f above the paper's <=20%% band (+ margin)", li[core.Cyclic])
	}
}

// TestComparePSMOrder: slices.SortFunc by ComparePSM puts shuffled PSM
// lists in the order the sort.Slice comparator it replaced gives. Every
// key draws from three values, so the lists are full of exact four-key
// ties and of ties broken at each later key.
func TestComparePSMOrder(t *testing.T) {
	reference := func(ms []engine.PSM) func(i, j int) bool {
		return func(i, j int) bool {
			a, b := ms[i], ms[j]
			if a.Score != b.Score {
				return a.Score > b.Score
			}
			if a.Peptide != b.Peptide {
				return a.Peptide < b.Peptide
			}
			if a.Precursor != b.Precursor {
				return a.Precursor < b.Precursor
			}
			return a.Shared > b.Shared
		}
	}
	rng := rand.New(rand.NewSource(7))
	exactTies := 0
	for trial := 0; trial < 300; trial++ {
		ms := make([]engine.PSM, rng.Intn(60))
		seen := map[engine.PSM]bool{}
		for i := range ms {
			m := engine.PSM{
				Peptide:   uint32(rng.Intn(3)),
				Shared:    uint16(4 + rng.Intn(3)),
				Score:     []float64{0, 7.25, 31.5}[rng.Intn(3)],
				Precursor: 900 + 0.5*float64(rng.Intn(3)),
			}
			m.Origin = int(m.Peptide) % 2 // a peptide lives in one shard
			if seen[m] {
				exactTies++
			}
			seen[m] = true
			ms[i] = m
		}
		want := slices.Clone(ms)
		sort.Slice(want, reference(want))
		rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
		slices.SortFunc(ms, engine.ComparePSM)
		if !reflect.DeepEqual(ms, want) {
			t.Fatalf("trial %d:\n got %v\nwant %v", trial, ms, want)
		}
	}
	if exactTies == 0 {
		t.Fatal("no list held an exact four-key tie")
	}
}

// TestMergeSortedIsSortAndCut: merging lists each in ComparePSM order
// gives what sorting their concatenation and cutting it to k gives, for
// zero to five lists (empty ones among them), every k from "all" up past
// the total, and lists full of exact ties across lists.
func TestMergeSortedIsSortAndCut(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		lists := make([][]engine.PSM, rng.Intn(6))
		var all []engine.PSM
		for i := range lists {
			for n := rng.Intn(5); n > 0; n-- {
				lists[i] = append(lists[i], engine.PSM{
					Peptide:   uint32(rng.Intn(4)),
					Shared:    uint16(rng.Intn(2)),
					Score:     float64(rng.Intn(3)),
					Precursor: 900,
				})
			}
			slices.SortFunc(lists[i], engine.ComparePSM)
			all = append(all, lists[i]...)
		}
		slices.SortStableFunc(all, engine.ComparePSM)
		for k := 0; k <= len(all)+1; k++ {
			want := all
			if k > 0 && k < len(all) {
				want = all[:k]
			}
			heads := slices.Clone(lists)
			got := engine.MergeSorted([]engine.PSM{{Peptide: 99}}, heads, k, engine.ComparePSM)
			if got[0].Peptide != 99 || !slices.Equal(got[1:], want) {
				t.Fatalf("trial %d, k %d: merge of %v\n got %v\nwant %v", trial, k, lists, got[1:], want)
			}
			left := 0
			for _, h := range heads {
				left += len(h)
			}
			if left != len(all)-len(want) {
				t.Fatalf("trial %d, k %d: %d elements left in the lists, want %d", trial, k, left, len(all)-len(want))
			}
		}
	}
}

func TestQueryTimesAndWorkUnitsProjection(t *testing.T) {
	sts := []engine.RankStats{
		{QueryNanos: 2e9, Work: slm.Work{IonHits: 100, Scored: 50}},
		{QueryNanos: 1e9, Work: slm.Work{IonHits: 10, Scored: 5}},
	}
	qt := engine.QueryTimes(sts)
	if qt[0] != 2.0 || qt[1] != 1.0 {
		t.Errorf("QueryTimes = %v", qt)
	}
	wu := engine.WorkUnits(sts)
	if wu[0] != 150 || wu[1] != 15 {
		t.Errorf("WorkUnits = %v", wu)
	}
}
