package engine_test

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"lbe/internal/core"
	"lbe/internal/engine"
	"lbe/internal/oracle"
)

// built is a session of the cell and its answer under its build schedule.
type built struct {
	sess *engine.Session
	res  *engine.Result
}

// fixture is what the rows of one cell share: the sessions built so far,
// by policy and shard count, and a directory for stores.
type fixture struct {
	oracle.Cell
	dir      string
	saved    bool
	sessions map[string]*built
}

// config is the cell's configuration under a partition policy.
func (f *fixture) config(policy core.Policy) engine.Config {
	cfg := f.Config()
	cfg.Policy, cfg.Seed = policy, 5
	return cfg
}

// session returns the cell's shards-way session under policy, building
// and searching it the first time a row asks.
func (f *fixture) session(t *testing.T, policy core.Policy, shards int) *built {
	t.Helper()
	key := fmt.Sprint(policy, shards)
	if b := f.sessions[key]; b != nil {
		return b
	}
	sess, err := engine.NewSession(f.Corpus.Peptides, engine.SessionConfig{Config: f.config(policy), Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Search(context.Background(), f.Corpus.Queries)
	if err != nil {
		t.Fatal(err)
	}
	f.sessions[key] = &built{sess, res}
	return f.sessions[key]
}

// store saves the cyclic three-shard session once per cell and returns
// it with the store's directory.
func (f *fixture) store(t *testing.T) (*built, string) {
	t.Helper()
	live, dir := f.session(t, core.Cyclic, 3), filepath.Join(f.dir, "store")
	if !f.saved {
		if err := live.sess.Save(dir, f.Corpus.Peptides); err != nil {
			t.Fatal(err)
		}
		f.saved = true
	}
	return live, dir
}

// search runs queries on sess and fails t on error.
func search(t *testing.T, sess *engine.Session, f *fixture) *engine.Result {
	t.Helper()
	res, err := sess.Search(context.Background(), f.Corpus.Queries)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// schedules are the runtime knobs every session row searches under.
var schedules = []engine.Schedule{
	{ThreadsPerRank: 1, BatchSize: 1},
	{ThreadsPerRank: 2, BatchSize: 7},
	{ThreadsPerRank: 4},
}

// sessionCells are the (policy, shards) pairs the session row builds:
// every policy at one and three shards, two shards under Random and four
// under RandomWithinGroups.
var sessionCells = []struct {
	policy core.Policy
	shards int
}{
	{core.Chunk, 1}, {core.Chunk, 3},
	{core.Cyclic, 1}, {core.Cyclic, 3},
	{core.Random, 1}, {core.Random, 2}, {core.Random, 3},
	{core.RandomWithinGroups, 1}, {core.RandomWithinGroups, 3}, {core.RandomWithinGroups, 4},
}

// storeRow opens the saved store on the heap or mapped.
func storeRow(mapped bool) func(t *testing.T, f *fixture) {
	return func(t *testing.T, f *fixture) {
		live, dir := f.store(t)
		sess, peptides, err := engine.OpenSessionOptions(dir, engine.OpenOptions{MapStore: mapped})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if !slices.Equal(peptides, f.Corpus.Peptides) || sess.Digest() != live.sess.Digest() {
			t.Fatalf("store reopened with %d peptides and digest %s, saved %d and %s",
				len(peptides), sess.Digest(), len(f.Corpus.Peptides), live.sess.Digest())
		}
		if n := sess.MappedShards(); (!mapped && n != 0) || (mapped && runtime.GOOS == "linux" && n != 3) {
			t.Fatalf("mapped=%v open backs %d of 3 shards with mappings", mapped, n)
		}
		res := search(t, sess, f)
		f.Check(t, "store", res)
		oracle.Same(t, "store vs the session that saved it", res, live.res)
	}
}

// rows are the engine's paths. Each runs on every cell and holds its
// answer to RunSerial; a path over a P-shard partition is also held to
// the P-shard session, Origin and per-rank stats included.
var rows = []struct {
	name string
	run  func(t *testing.T, f *fixture)
}{
	{"brute", func(t *testing.T, f *fixture) {
		idx, got := f.Brute(t)
		ref := f.Serial(t)
		want := make([][]engine.PSM, len(idx))
		for i, q := range idx {
			want[i] = ref.PSMs[q]
		}
		oracle.PSMs(t, "slm.BruteForce vs RunSerial", got, want, false)
	}},
	{"serial", func(t *testing.T, f *fixture) {
		res, err := engine.RunSerial(f.Corpus.Peptides, f.Corpus.Queries, f.Config())
		if err != nil {
			t.Fatal(err)
		}
		f.Check(t, "a second RunSerial", res)
		// The reference matches something in every cell, and on the
		// generated corpus an open TopK cut drops at least half of it, so
		// the TopK shapes have something to cut.
		count := func(r *engine.Result) (n int) {
			for _, ps := range r.PSMs {
				n += len(ps)
			}
			return n
		}
		kept := count(res)
		if kept == 0 {
			t.Fatal("RunSerial matches nothing; the cell tests nothing")
		}
		if f.Corpus.Name == "generated" && f.Shape.TopK > 0 && f.Shape.Tol.IsOpen() {
			if all := count(oracle.Cell{Corpus: f.Corpus, Shape: oracle.Shapes[0]}.Serial(t)); all < 2*kept {
				t.Fatalf("TopK %d keeps %d of %d PSMs; the cut drops too little to test", f.Shape.TopK, kept, all)
			}
		}
	}},
	{"session", func(t *testing.T, f *fixture) {
		for _, c := range sessionCells {
			b := f.session(t, c.policy, c.shards)
			for _, sc := range schedules {
				b.sess.SetSchedule(sc)
				f.Check(t, fmt.Sprintf("%v/shards=%d/%+v", c.policy, c.shards, sc), search(t, b.sess, f))
			}
		}
	}},
	{"weighted", func(t *testing.T, f *fixture) {
		cfg := f.config(core.Cyclic)
		cfg.Weights = []float64{4, 2, 1, 1}
		sess, err := engine.NewSession(f.Corpus.Peptides, engine.SessionConfig{Config: cfg, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		f.Check(t, "weighted session", search(t, sess, f))
	}},
	{"raw-order", func(t *testing.T, f *fixture) {
		cfg := f.config(core.Cyclic)
		cfg.RawOrder = true
		sess, err := engine.NewSession(f.Corpus.Peptides, engine.SessionConfig{Config: cfg, Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		f.Check(t, "raw order", search(t, sess, f))
	}},
	{"row-views", func(t *testing.T, f *fixture) {
		sess, err := engine.NewSession(f.Corpus.Peptides, engine.SessionConfig{Config: f.config(core.Cyclic), Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		search(t, sess, f) // starts the background row-view build
		if sess.WaitRowViews() == f.Shape.Tol.IsOpen() {
			t.Fatalf("a %v session started a row-view build: %v", f.Shape.Tol, !f.Shape.Tol.IsOpen())
		}
		f.Check(t, "session with its row views", search(t, sess, f))
	}},
	{"store/heap", storeRow(false)},
	{"store/mapped", storeRow(true)},
	{"partitioned", func(t *testing.T, f *fixture) {
		live, _ := f.store(t)
		for _, sets := range []int{1, 2, 3} {
			dir := filepath.Join(f.dir, fmt.Sprint("sets-", sets))
			cm, err := live.sess.SavePartitioned(dir, f.Corpus.Peptides, sets)
			if err != nil {
				t.Fatal(err)
			}
			reread, err := engine.ReadClusterManifest(dir)
			if err != nil || !reflect.DeepEqual(reread, cm) || cm.Sets != sets || cm.TotalShards != 3 ||
				cm.ClusterDigest != engine.ComposeClusterDigest(cm.SetDigests) {
				t.Fatalf("sets=%d: cluster manifest %+v, reread %+v (%v)", sets, cm, reread, err)
			}
			if sets == 1 && cm.ClusterDigest != cm.SetDigests[0] {
				t.Fatalf("a one-set cluster's digest %s is not its store's %s", cm.ClusterDigest, cm.SetDigests[0])
			}
			var stats []engine.RankStats
			merged := make([][]engine.PSM, len(f.Corpus.Queries))
			for i, setDir := range cm.SetDirs {
				slice, peptides, err := engine.OpenSession(filepath.Join(dir, setDir))
				if err != nil {
					t.Fatal(err)
				}
				defer slice.Close()
				info := slice.ShardSet()
				if !slices.Equal(peptides, f.Corpus.Peptides) || slice.Digest() != cm.SetDigests[i] ||
					info.Set != i || info.Sets != sets || info.TotalShards != 3 || len(info.ShardIDs) != slice.NumShards() {
					t.Fatalf("sets=%d: set %d opened with %d peptides, digest %s, %+v", sets, i, len(peptides), slice.Digest(), info)
				}
				res := search(t, slice, f)
				stats = append(stats, res.Stats...)
				for q, ms := range res.PSMs {
					merged[q] = append(merged[q], ms...)
				}
			}
			for q, ms := range merged {
				slices.SortFunc(ms, engine.ComparePSM)
				if k := f.Shape.TopK; k > 0 && len(ms) > k {
					merged[q] = ms[:k]
				}
			}
			label := fmt.Sprint("merged sets=", sets)
			f.Check(t, label, &engine.Result{PSMs: merged, Stats: stats})
			oracle.PSMs(t, label+" vs the whole session", merged, live.res.PSMs, true)
			oracle.Ranks(t, label+" vs the whole session", stats, live.res.Stats)
		}
	}},
}

// TestMatrix runs every engine path on every corpus × shape.
func TestMatrix(t *testing.T) {
	t.Parallel()
	for _, c := range oracle.Cells(t) {
		t.Run(c.Name(), func(t *testing.T) {
			t.Parallel()
			f := &fixture{Cell: c, dir: t.TempDir(), sessions: map[string]*built{}}
			defer func() {
				for _, b := range f.sessions {
					b.sess.Close()
				}
			}()
			for _, r := range rows {
				t.Run(r.name, func(t *testing.T) { r.run(t, f) })
			}
		})
	}
}
