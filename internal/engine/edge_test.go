package engine

import (
	"testing"

	"lbe/internal/core"
)

// TestEmptyQueries: a run with no queries must still build, partition and
// return empty results with valid stats (the Fig. 5 memory experiment
// relies on this).
func TestEmptyQueries(t *testing.T) {
	peptides, _, _ := testDataset(t, 4, 1, 0)
	cfg := lightConfig()
	res, err := searchShards(3, peptides, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PSMs) != 0 {
		t.Errorf("PSMs = %d", len(res.PSMs))
	}
	if len(res.Stats) != 3 {
		t.Fatalf("stats = %d", len(res.Stats))
	}
	for _, s := range res.Stats {
		if s.IndexBytes <= 0 || s.Peptides == 0 {
			t.Errorf("rank %d stats: %+v", s.Rank, s)
		}
		if s.Work.IonHits != 0 {
			t.Errorf("rank %d did work with no queries", s.Rank)
		}
	}
}

// TestEmptyDatabase: searching an empty peptide database yields empty
// PSMs for every query.
func TestEmptyDatabase(t *testing.T) {
	_, queries, _ := testDataset(t, 4, 1, 5)
	cfg := lightConfig()
	res, err := searchShards(2, nil, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for q, psms := range res.PSMs {
		if len(psms) != 0 {
			t.Errorf("query %d matched against empty database", q)
		}
	}
}

// TestInvalidConfigFails: a broken grouping config, index parameter or
// policy fails the session build.
func TestInvalidConfigFails(t *testing.T) {
	peptides, queries, _ := testDataset(t, 4, 1, 3)
	cfg := lightConfig()
	cfg.Group = core.GroupConfig{GroupSize: 0}
	if _, err := searchShards(3, peptides, queries, cfg); err == nil {
		t.Error("invalid grouping config must fail")
	}
	cfg = lightConfig()
	cfg.Params.Resolution = -1
	if _, err := searchShards(3, peptides, queries, cfg); err == nil {
		t.Error("invalid index params must fail")
	}
	cfg = lightConfig()
	cfg.Policy = core.Policy(99)
	if _, err := searchShards(3, peptides, queries, cfg); err == nil {
		t.Error("unknown policy must fail")
	}
}

// TestSerialEmptyInputs covers the baseline's edge cases.
func TestSerialEmptyInputs(t *testing.T) {
	cfg := lightConfig()
	res, err := RunSerial(nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PSMs) != 0 || res.CandidatePSMs() != 0 {
		t.Errorf("empty serial run: %+v", res)
	}
}
