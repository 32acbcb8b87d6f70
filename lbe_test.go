package lbe_test

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"lbe"
)

// TestEndToEndPipeline drives the whole system through the public facade:
// generate -> digest -> dedup -> distributed search -> metrics -> file I/O.
func TestEndToEndPipeline(t *testing.T) {
	pcfg := lbe.DefaultProteomeConfig()
	pcfg.NumFamilies = 12
	pcfg.Homologs = 2
	recs, err := lbe.GenerateProteome(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	proteins := make([]string, len(recs))
	for i, r := range recs {
		proteins[i] = r.Sequence
	}

	peps, err := lbe.Digest(lbe.DefaultDigestConfig(), proteins)
	if err != nil {
		t.Fatal(err)
	}
	peps = lbe.Dedup(peps)
	peptides := lbe.PeptideSequences(peps)
	if len(peptides) < 200 {
		t.Fatalf("only %d peptides", len(peptides))
	}

	scfg := lbe.DefaultSpectraConfig()
	scfg.NumSpectra = 50
	queries, truth, err := lbe.GenerateSpectra(peptides, scfg)
	if err != nil {
		t.Fatal(err)
	}

	ecfg := lbe.DefaultEngineConfig()
	ecfg.Params.Mods.MaxPerPep = 1
	ecfg.TopK = 5
	sess, err := lbe.NewSession(peptides, lbe.SessionConfig{Config: ecfg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Search(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PSMs) != len(queries) {
		t.Fatalf("PSMs for %d queries", len(res.PSMs))
	}

	hits := 0
	for q := range queries {
		for _, p := range res.PSMs[q] {
			if int(p.Peptide) == truth[q].Peptide {
				hits++
				break
			}
		}
	}
	if hits < len(queries)/2 {
		t.Errorf("identified %d/%d", hits, len(queries))
	}

	li := lbe.LoadImbalance(lbe.WorkUnits(res.Stats))
	if li < 0 || math.IsNaN(li) {
		t.Errorf("LI = %v", li)
	}

	// File round trips through both formats.
	dir := t.TempDir()
	ms2Path := filepath.Join(dir, "run.ms2")
	if err := lbe.WriteMS2(ms2Path, queries); err != nil {
		t.Fatal(err)
	}
	back, err := lbe.ReadMS2(ms2Path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(queries) {
		t.Errorf("ms2 round trip: %d vs %d", len(back), len(queries))
	}
	mzPath := filepath.Join(dir, "run.mzML")
	if err := lbe.WriteMzML(mzPath, queries[:5], true); err != nil {
		t.Fatal(err)
	}
	back, err = lbe.ReadMzML(mzPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 5 {
		t.Errorf("mzml round trip: %d", len(back))
	}

	faPath := filepath.Join(dir, "db.fasta")
	if err := lbe.WriteFasta(faPath, recs); err != nil {
		t.Fatal(err)
	}
	recs2, err := lbe.ReadFasta(faPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != len(recs) {
		t.Errorf("fasta round trip: %d vs %d", len(recs2), len(recs))
	}
}

// TestFacadeLBEPrimitives exercises the grouping/partitioning surface.
func TestFacadeLBEPrimitives(t *testing.T) {
	peptides := []string{
		"AAAAGGGGKKKK", "AAAAGGGGKKKC", "AAAAGGGGKKCC",
		"WWWWYYYYFFFF", "WWWWYYYYFFFC", "LLLLMMMMNNNN",
	}
	g, err := lbe.Group(peptides, lbe.DefaultGroupConfig())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() == 0 {
		t.Fatal("no groups")
	}
	part, err := lbe.PartitionClustered(g, 3, lbe.Cyclic, 0)
	if err != nil {
		t.Fatal(err)
	}
	table := lbe.BuildMappingTable(g, part)
	if table.Len() != len(peptides) {
		t.Errorf("table len %d", table.Len())
	}
	seen := map[uint32]bool{}
	for m := 0; m < table.Machines(); m++ {
		for v := 0; v < table.MachineLen(m); v++ {
			gidx, err := table.Lookup(m, uint32(v))
			if err != nil {
				t.Fatal(err)
			}
			if seen[gidx] {
				t.Fatalf("duplicate mapping for %d", gidx)
			}
			seen[gidx] = true
		}
	}
}

// TestFacadeIndexSearch exercises BuildIndex/Preprocess directly.
func TestFacadeIndexSearch(t *testing.T) {
	params := lbe.DefaultSearchParams()
	params.Mods.MaxPerPep = 0
	ix, err := lbe.BuildIndex([]string{"PEPTIDEK", "AAAAGGGGK"}, params)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumRows() != 2 {
		t.Errorf("rows = %d", ix.NumRows())
	}
}

// TestFacadeExtendedFeatures exercises the v2 surface: serialization,
// weighted partitioning, tolerances, decoys and q-values.
func TestFacadeExtendedFeatures(t *testing.T) {
	peptides := []string{"PEPTIDEK", "AAAAGGGGK", "WWYYFFLLK", "NQKCMAAR"}

	params := lbe.DefaultSearchParams()
	params.Mods.MaxPerPep = 0
	ix, err := lbe.BuildIndex(peptides, params)
	if err != nil {
		t.Fatal(err)
	}

	// Save/Load round trip.
	path := filepath.Join(t.TempDir(), "ix.slm")
	if err := lbe.SaveIndex(ix, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := lbe.LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumRows() != ix.NumRows() {
		t.Errorf("rows after reload: %d vs %d", loaded.NumRows(), ix.NumRows())
	}

	// Tolerances.
	if !lbe.OpenTolerance().IsOpen() {
		t.Error("OpenTolerance not open")
	}
	if lbe.DaltonTolerance(0.5).Width(100) != 0.5 {
		t.Error("DaltonTolerance width wrong")
	}
	if lbe.PPMTolerance(10).Width(1e6) != 10 {
		t.Error("PPMTolerance width wrong")
	}

	// Weighted partitioning through the facade.
	g, err := lbe.Group(peptides, lbe.DefaultGroupConfig())
	if err != nil {
		t.Fatal(err)
	}
	part, err := lbe.PartitionWeighted(g, []float64{3, 1}, lbe.Cyclic, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Assign[0]) < len(part.Assign[1]) {
		t.Errorf("weighted shares inverted: %d vs %d", len(part.Assign[0]), len(part.Assign[1]))
	}

	// Decoys and q-values.
	combined, first := lbe.DecoyDB(peptides)
	if first != len(peptides) || len(combined) <= first {
		t.Errorf("decoy db: %d entries, first decoy %d", len(combined), first)
	}
	if lbe.Decoy("PEPTIDEK") != "EDITPEPK" {
		t.Errorf("Decoy = %q", lbe.Decoy("PEPTIDEK"))
	}
	psms := []lbe.ScoredPSM{{Score: 10}, {Score: 5, IsDecoy: true}}
	qv := lbe.QValues(psms)
	n, err := lbe.AcceptedAt(psms, qv, 0.01)
	if err != nil || n != 1 {
		t.Errorf("accepted = %d (%v)", n, err)
	}

	// Filtration baselines through the facade.
	pf, err := lbe.NewPrecursorFilter(peptides, lbe.DaltonTolerance(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if pf.Name() != "precursor-mass" {
		t.Errorf("filter name %q", pf.Name())
	}
}

// TestFacadeHybridAndWeightedRun drives the engine extensions end to end.
func TestFacadeHybridAndWeightedRun(t *testing.T) {
	pcfg := lbe.DefaultProteomeConfig()
	pcfg.NumFamilies = 6
	recs, err := lbe.GenerateProteome(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	proteins := make([]string, len(recs))
	for i, r := range recs {
		proteins[i] = r.Sequence
	}
	peps, err := lbe.Digest(lbe.DefaultDigestConfig(), proteins)
	if err != nil {
		t.Fatal(err)
	}
	peptides := lbe.PeptideSequences(lbe.Dedup(peps))
	scfg := lbe.DefaultSpectraConfig()
	scfg.NumSpectra = 20
	queries, _, err := lbe.GenerateSpectra(peptides, scfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg := lbe.DefaultEngineConfig()
	cfg.Params.Mods.MaxPerPep = 1
	cfg.ThreadsPerRank = 2
	cfg.Weights = []float64{2, 1, 1}
	sess, err := lbe.NewSession(peptides, lbe.SessionConfig{Config: cfg, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Search(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PSMs) != len(queries) {
		t.Fatalf("PSMs = %d", len(res.PSMs))
	}
	if res.Stats[0].Peptides <= res.Stats[1].Peptides {
		t.Errorf("weighted shares not applied: %d vs %d",
			res.Stats[0].Peptides, res.Stats[1].Peptides)
	}
}
