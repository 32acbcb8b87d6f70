package engine

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"lbe/internal/core"
	"lbe/internal/digest"
	"lbe/internal/gen"
	"lbe/internal/mods"
	"lbe/internal/slm"
	"lbe/internal/spectrum"
	"lbe/internal/stats"
)

// testDataset builds a small but realistic corpus: synthetic proteome ->
// tryptic digest -> dedup, plus a skewed query run.
func testDataset(t testing.TB, families, homologs, nspectra int) ([]string, []spectrum.Experimental, []gen.GroundTruth) {
	t.Helper()
	recs, err := gen.Proteome(gen.ProteomeConfig{
		Seed: 21, NumFamilies: families, Homologs: homologs, MeanLen: 300, MutationRate: 0.03,
	})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]string, len(recs))
	for i, r := range recs {
		seqs[i] = r.Sequence
	}
	peps, err := digest.DefaultConfig().Proteome(seqs)
	if err != nil {
		t.Fatal(err)
	}
	peps = digest.Dedup(peps)
	peptides := digest.Sequences(peps)

	scfg := gen.DefaultSpectraConfig()
	scfg.NumSpectra = nspectra
	scfg.Seed = 22
	queries, truth, err := gen.Spectra(peptides, scfg)
	if err != nil {
		t.Fatal(err)
	}
	return peptides, queries, truth
}

// searchShards builds a p-shard Session over peptides, searches queries
// on it and closes it: the one-process form of the paper's p-rank run.
func searchShards(p int, peptides []string, queries []spectrum.Experimental, cfg Config) (*Result, error) {
	sess, err := NewSession(peptides, SessionConfig{Config: cfg, Shards: p})
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return sess.Search(context.Background(), queries)
}

// lightConfig keeps mod fan-out small so tests stay fast.
func lightConfig() Config {
	cfg := DefaultConfig()
	cfg.Params.Mods = mods.Config{Mods: mods.PaperSet(), MaxPerPep: 1}
	cfg.TopK = 0 // keep all matches for exact set comparison
	return cfg
}

func TestIdentificationRate(t *testing.T) {
	// The engine must actually identify peptides: for most queries the
	// ground-truth peptide should be among the top PSMs.
	peptides, queries, truth := testDataset(t, 10, 2, 80)
	cfg := lightConfig()
	cfg.TopK = 5
	res, err := searchShards(3, peptides, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hit := 0
	for q := range queries {
		for _, p := range res.PSMs[q] {
			if int(p.Peptide) == truth[q].Peptide {
				hit++
				break
			}
		}
	}
	rate := float64(hit) / float64(len(queries))
	if rate < 0.7 {
		t.Errorf("identification rate %.2f too low (%d/%d)", rate, hit, len(queries))
	}
}

func TestPartitionStatsShape(t *testing.T) {
	peptides, queries, _ := testDataset(t, 8, 2, 20)
	cfg := lightConfig()
	const p = 4
	res, err := searchShards(p, peptides, queries, cfg)
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
	if totalPeps != len(peptides) {
		t.Errorf("partition sizes sum to %d, want %d", totalPeps, len(peptides))
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
	peptides, queries, _ := testDataset(t, 16, 3, 300)
	cfg := lightConfig()
	const p = 8

	li := map[core.Policy]float64{}
	for _, policy := range []core.Policy{core.Chunk, core.Cyclic} {
		cfg.Policy = policy
		res, err := searchShards(p, peptides, queries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		li[policy] = stats.LoadImbalance(WorkUnits(res.Stats))
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
	reference := func(ms []PSM) func(i, j int) bool {
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
		ms := make([]PSM, rng.Intn(60))
		seen := map[PSM]bool{}
		for i := range ms {
			m := PSM{
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
		slices.SortFunc(ms, ComparePSM)
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
		lists := make([][]PSM, rng.Intn(6))
		var all []PSM
		for i := range lists {
			for n := rng.Intn(5); n > 0; n-- {
				lists[i] = append(lists[i], PSM{
					Peptide:   uint32(rng.Intn(4)),
					Shared:    uint16(rng.Intn(2)),
					Score:     float64(rng.Intn(3)),
					Precursor: 900,
				})
			}
			slices.SortFunc(lists[i], ComparePSM)
			all = append(all, lists[i]...)
		}
		slices.SortStableFunc(all, ComparePSM)
		for k := 0; k <= len(all)+1; k++ {
			want := all
			if k > 0 && k < len(all) {
				want = all[:k]
			}
			heads := slices.Clone(lists)
			got := MergeSorted([]PSM{{Peptide: 99}}, heads, k, ComparePSM)
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
	sts := []RankStats{
		{QueryNanos: 2e9, Work: slm.Work{IonHits: 100, Scored: 50}},
		{QueryNanos: 1e9, Work: slm.Work{IonHits: 10, Scored: 5}},
	}
	qt := QueryTimes(sts)
	if qt[0] != 2.0 || qt[1] != 1.0 {
		t.Errorf("QueryTimes = %v", qt)
	}
	wu := WorkUnits(sts)
	if wu[0] != 150 || wu[1] != 15 {
		t.Errorf("WorkUnits = %v", wu)
	}
}
