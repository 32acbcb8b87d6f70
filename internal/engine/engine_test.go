package engine

import (
	"context"
	"fmt"
	"math"
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

// lightConfig keeps mod fan-out small so tests stay fast.
func lightConfig() Config {
	cfg := DefaultConfig()
	cfg.Params.Mods = mods.Config{Mods: mods.PaperSet(), MaxPerPep: 1}
	cfg.TopK = 0 // keep all matches for exact set comparison
	return cfg
}

// psmKey canonicalizes a PSM for cross-run comparison (Origin differs by
// construction; Row is partition-local).
func psmKey(p PSM) string {
	return fmt.Sprintf("%d|%d|%.6f|%.4f", p.Peptide, p.Shared, p.Score, p.Precursor)
}

func psmSet(psms [][]PSM) map[string]int {
	set := map[string]int{}
	for _, qs := range psms {
		for _, p := range qs {
			set[psmKey(p)]++
		}
	}
	return set
}

func TestDistributedMatchesSerial(t *testing.T) {
	peptides, queries, _ := testDataset(t, 10, 2, 60)
	cfg := lightConfig()

	serial, err := RunSerial(peptides, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.PSMs) != len(queries) {
		t.Fatalf("serial PSMs for %d queries, want %d", len(serial.PSMs), len(queries))
	}
	want := psmSet(serial.PSMs)
	if len(want) == 0 {
		t.Fatal("serial run found no PSMs; dataset too small")
	}

	for _, policy := range []core.Policy{core.Chunk, core.Cyclic, core.Random, core.RandomWithinGroups} {
		for _, p := range []int{1, 2, 4, 7} {
			cfg := cfg
			cfg.Policy = policy
			cfg.Seed = 5
			res, err := RunInProcess(context.Background(), p, peptides, queries, cfg)
			if err != nil {
				t.Fatalf("%v p=%d: %v", policy, p, err)
			}
			got := psmSet(res.PSMs)
			if len(got) != len(want) {
				t.Fatalf("%v p=%d: %d distinct PSMs, serial %d", policy, p, len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("%v p=%d: PSM %s count %d, serial %d", policy, p, k, got[k], n)
				}
			}
			// Per-query counts must match too.
			for q := range queries {
				if len(res.PSMs[q]) != len(serial.PSMs[q]) {
					t.Fatalf("%v p=%d query %d: %d PSMs vs serial %d",
						policy, p, q, len(res.PSMs[q]), len(serial.PSMs[q]))
				}
			}
		}
	}
}

func TestTopKConsistency(t *testing.T) {
	peptides, queries, _ := testDataset(t, 8, 2, 30)
	cfg := lightConfig()
	cfg.TopK = 3

	serial, err := RunSerial(peptides, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunInProcess(context.Background(), 4, peptides, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for q := range queries {
		if len(res.PSMs[q]) > 3 {
			t.Fatalf("query %d has %d PSMs, topK=3", q, len(res.PSMs[q]))
		}
		if len(res.PSMs[q]) != len(serial.PSMs[q]) {
			t.Fatalf("query %d: %d vs serial %d", q, len(res.PSMs[q]), len(serial.PSMs[q]))
		}
		for i := range res.PSMs[q] {
			a, b := res.PSMs[q][i], serial.PSMs[q][i]
			if a.Peptide != b.Peptide || a.Shared != b.Shared || math.Abs(a.Score-b.Score) > 1e-9 {
				t.Fatalf("query %d psm %d: %+v vs serial %+v", q, i, a, b)
			}
		}
		// Scores descending.
		for i := 1; i < len(res.PSMs[q]); i++ {
			if res.PSMs[q][i].Score > res.PSMs[q][i-1].Score {
				t.Fatalf("query %d PSMs not sorted", q)
			}
		}
	}
}

func TestIdentificationRate(t *testing.T) {
	// The engine must actually identify peptides: for most queries the
	// ground-truth peptide should be among the top PSMs.
	peptides, queries, truth := testDataset(t, 10, 2, 80)
	cfg := lightConfig()
	cfg.TopK = 5
	res, err := RunInProcess(context.Background(), 3, peptides, queries, cfg)
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
	res, err := RunInProcess(context.Background(), p, peptides, queries, cfg)
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
		res, err := RunInProcess(context.Background(), p, peptides, queries, cfg)
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

func TestRunOverTCPMatchesInProcess(t *testing.T) {
	peptides, queries, _ := testDataset(t, 6, 2, 20)
	cfg := lightConfig()
	a, err := RunInProcess(context.Background(), 3, peptides, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOverTCP(context.Background(), 3, peptides, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := psmSet(a.PSMs), psmSet(b.PSMs)
	if len(sa) != len(sb) {
		t.Fatalf("PSM sets differ: %d vs %d", len(sa), len(sb))
	}
	for k, n := range sa {
		if sb[k] != n {
			t.Fatalf("PSM %s: %d vs %d", k, n, sb[k])
		}
	}
}

func TestSingleRankDistributedEqualsSerial(t *testing.T) {
	peptides, queries, _ := testDataset(t, 6, 1, 15)
	cfg := lightConfig()
	serial, err := RunSerial(peptides, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := RunInProcess(context.Background(), 1, peptides, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With one rank the clustered order changes local peptide numbering,
	// but the mapped global PSM sets must still be identical.
	sa, sb := psmSet(serial.PSMs), psmSet(dist.PSMs)
	if len(sa) != len(sb) {
		t.Fatalf("%d vs %d PSMs", len(sa), len(sb))
	}
	for k, n := range sa {
		if sb[k] != n {
			t.Fatalf("PSM %s: %d vs %d", k, n, sb[k])
		}
	}
}

func TestWorkConservation(t *testing.T) {
	// Total scored candidates across ranks must equal the serial run's:
	// partitioning redistributes work but never changes its total.
	peptides, queries, _ := testDataset(t, 8, 2, 40)
	cfg := lightConfig()
	serial, err := RunSerial(peptides, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []core.Policy{core.Chunk, core.Cyclic, core.Random} {
		cfg.Policy = policy
		res, err := RunInProcess(context.Background(), 5, peptides, queries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.CandidatePSMs() != serial.CandidatePSMs() {
			t.Errorf("%v: scored %d, serial %d", policy, res.CandidatePSMs(), serial.CandidatePSMs())
		}
	}
}

func TestResultPSMsSortedDeterministically(t *testing.T) {
	peptides, queries, _ := testDataset(t, 6, 2, 20)
	cfg := lightConfig()
	a, err := RunInProcess(context.Background(), 4, peptides, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunInProcess(context.Background(), 4, peptides, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for q := range queries {
		if len(a.PSMs[q]) != len(b.PSMs[q]) {
			t.Fatalf("query %d: nondeterministic result count", q)
		}
		for i := range a.PSMs[q] {
			pa, pb := a.PSMs[q][i], b.PSMs[q][i]
			if pa.Peptide != pb.Peptide || pa.Score != pb.Score {
				t.Fatalf("query %d psm %d differs across runs", q, i)
			}
		}
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
