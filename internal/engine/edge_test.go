package engine_test

import (
	"context"
	"testing"

	"lbe/internal/core"
	"lbe/internal/engine"
	"lbe/internal/oracle"
)

// TestEmptyQueries: a run with no queries must still build, partition and
// return empty results with valid stats (the Fig. 5 memory experiment
// relies on this).
func TestEmptyQueries(t *testing.T) {
	c := oracle.CellOf(t, "generated", "open-all")
	sess, err := engine.NewSession(c.Corpus.Peptides, engine.SessionConfig{Config: c.Config(), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Search(context.Background(), nil)
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
	c := oracle.CellOf(t, "generated", "open-all")
	sess, err := engine.NewSession(nil, engine.SessionConfig{Config: c.Config(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Search(context.Background(), c.Corpus.Queries)
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
	c := oracle.CellOf(t, "generated", "open-all")
	for name, broken := range map[string]func(*engine.Config){
		"invalid grouping config": func(cfg *engine.Config) { cfg.Group = core.GroupConfig{GroupSize: 0} },
		"invalid index params":    func(cfg *engine.Config) { cfg.Params.Resolution = -1 },
		"unknown policy":          func(cfg *engine.Config) { cfg.Policy = core.Policy(99) },
	} {
		cfg := c.Config()
		broken(&cfg)
		if sess, err := engine.NewSession(c.Corpus.Peptides, engine.SessionConfig{Config: cfg, Shards: 3}); err == nil {
			sess.Close()
			t.Errorf("%s must fail", name)
		}
	}
}

// TestSerialEmptyInputs covers the baseline's edge cases.
func TestSerialEmptyInputs(t *testing.T) {
	res, err := engine.RunSerial(nil, nil, oracle.CellOf(t, "single-row", "open-all").Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PSMs) != 0 || res.CandidatePSMs() != 0 {
		t.Errorf("empty serial run: %+v", res)
	}
}
