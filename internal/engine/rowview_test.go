package engine

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"lbe/internal/mass"
)

// narrowConfig is lightConfig with a 0.5 Da precursor window: the
// tolerance whose shards build row views.
func narrowConfig() Config {
	cfg := lightConfig()
	cfg.Params.PrecursorTol = mass.Da(0.5)
	return cfg
}

// requireRowViews fails unless every shard of s has published its row
// view (want) or none has (!want).
func requireRowViews(t *testing.T, label string, s *Session, want bool) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for m, ix := range s.shards {
		if ix.NeedsRowView() == want {
			t.Fatalf("%s: shard %d has a row view: %v, want %v", label, m, !ix.NeedsRowView(), want)
		}
	}
}

// TestSessionBuildsRowViews: a narrow-window session, built or opened
// from a mapped store, builds its shards' row views in the background
// once it has queries to answer — not at construction, not for an empty
// query set — and answers the same before and after they are published.
func TestSessionBuildsRowViews(t *testing.T) {
	peptides, queries, _ := testDataset(t, 6, 2, 30)
	built, err := NewSession(peptides, SessionConfig{Config: narrowConfig(), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	dir := t.TempDir()
	if err := built.Save(dir, peptides); err != nil {
		t.Fatal(err)
	}
	mapped, _, err := OpenSessionOptions(dir, OpenOptions{MapStore: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	ctx := context.Background()
	for label, s := range map[string]*Session{"built": built, "mapped": mapped} {
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
	peptides, queries, _ := testDataset(t, 6, 2, 4)
	base := runtime.NumGoroutine()
	sess, err := NewSession(peptides, SessionConfig{Config: narrowConfig(), Shards: 2})
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

	open, err := NewSession(peptides, SessionConfig{Config: lightConfig(), Shards: 2})
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
