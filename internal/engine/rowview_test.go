package engine_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"lbe/internal/engine"
	"lbe/internal/oracle"
)

// requireRowViews fails unless every shard of s has published its row
// view (want) or none has (!want).
func requireRowViews(t *testing.T, label string, s *engine.Session, want bool) {
	t.Helper()
	for m, needs := range s.NeedsRowViews() {
		if needs == want {
			t.Fatalf("%s: shard %d has a row view: %v, want %v", label, m, !needs, want)
		}
	}
}

// TestSessionBuildsRowViews: a narrow-window session, built or opened
// from a mapped store, builds its shards' row views in the background
// once it has queries to answer — not at construction, not for an empty
// query set — and answers the same before and after they are published.
func TestSessionBuildsRowViews(t *testing.T) {
	c := oracle.CellOf(t, "generated", "0.5Da-top10")
	peptides, queries, cfg := c.Corpus.Peptides, c.Corpus.Queries, c.Config()
	cfg.TopK = 0 // every match, before and after
	built, err := engine.NewSession(peptides, engine.SessionConfig{Config: cfg, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	dir := t.TempDir()
	if err := built.Save(dir, peptides); err != nil {
		t.Fatal(err)
	}
	mapped, _, err := engine.OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	ctx := context.Background()
	for label, s := range map[string]*engine.Session{"built": built, "mapped": mapped} {
		if _, err := s.Search(ctx, nil); err != nil {
			t.Fatal(err)
		}
		if s.WaitRowViews() {
			t.Fatalf("%s: an empty query set started the row-view build", label)
		}
		requireRowViews(t, label+" before any query", s, false)
		before, err := s.Search(ctx, queries)
		if err != nil {
			t.Fatal(err)
		}
		if !s.WaitRowViews() {
			t.Fatalf("%s: a search started no row-view build", label)
		}
		requireRowViews(t, label+" after the first search", s, true)
		after, err := s.Search(ctx, queries)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before.PSMs, after.PSMs) {
			t.Fatalf("%s: answers changed once the row views were published", label)
		}
		for m := range before.Stats {
			if before.Stats[m].Work != after.Stats[m].Work {
				t.Fatalf("%s shard %d: work %+v before the row views, %+v after", label, m, before.Stats[m].Work, after.Stats[m].Work)
			}
		}
	}
}

// TestSessionCloseStopsRowViews: Close cancels the row-view build, in
// flight or done, and waits for it, leaving no goroutine behind; an
// open-tolerance session starts none.
func TestSessionCloseStopsRowViews(t *testing.T) {
	narrow := oracle.CellOf(t, "generated", "0.5Da-top10")
	peptides, queries := narrow.Corpus.Peptides, narrow.Corpus.Queries[:4]
	base := runtime.NumGoroutine()
	sess, err := engine.NewSession(peptides, engine.SessionConfig{Config: narrow.Config(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Search(context.Background(), queries); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	waitForGoroutines(t, base)
	if _, err := sess.Search(context.Background(), queries); err == nil {
		t.Fatal("a closed session answered")
	}

	open, err := engine.NewSession(peptides, engine.SessionConfig{Config: oracle.CellOf(t, "generated", "open-all").Config(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	if _, err := open.Search(context.Background(), queries); err != nil {
		t.Fatal(err)
	}
	if open.WaitRowViews() {
		t.Fatal("an open-tolerance session started a row-view build")
	}
}
