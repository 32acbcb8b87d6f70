package engine_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"lbe/internal/engine"
	"lbe/internal/oracle"
)

// storeFixture builds one session of the generated corpus, saves it, and
// hands the store directory to a corruption scenario.
func storeFixture(t *testing.T, shards int, withPeptides bool) (dir string, peptides []string) {
	t.Helper()
	c := oracle.CellOf(t, "generated", "open-all")
	peptides = c.Corpus.Peptides
	sess, err := engine.NewSession(peptides, engine.SessionConfig{Config: c.Config(), Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	dir = filepath.Join(t.TempDir(), "store")
	saved := peptides
	if !withPeptides {
		saved = nil
	}
	if err := sess.Save(dir, saved); err != nil {
		t.Fatal(err)
	}
	return dir, peptides
}

func TestStoreWithoutPeptides(t *testing.T) {
	dir, _ := storeFixture(t, 2, false)
	sess, peps, err := engine.OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if peps != nil {
		t.Fatalf("store saved without peptides returned %d peptides", len(peps))
	}
	if sess.NumShards() != 2 {
		t.Fatalf("loaded %d shards, want 2", sess.NumShards())
	}
}

// TestSaveRejectsWrongPeptideList: one rule, keyed on the set count — a
// whole store's list is exactly the mapped peptides, a slice's is the
// global list that covers them. The slice is set 1 of a two-set store.
func TestSaveRejectsWrongPeptideList(t *testing.T) {
	c := oracle.CellOf(t, "generated", "open-all")
	peptides := c.Corpus.Peptides
	whole, err := engine.NewSession(peptides, engine.SessionConfig{Config: c.Config(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	dir := t.TempDir()
	cm, err := whole.SavePartitioned(dir, peptides, 2)
	if err != nil {
		t.Fatal(err)
	}
	slice, _, err := engine.OpenSession(filepath.Join(dir, cm.SetDirs[1]))
	if err != nil {
		t.Fatal(err)
	}
	defer slice.Close()
	longer := append(slices.Clone(peptides), "PEPTIDEK")
	for _, tc := range []struct {
		name string
		sess *engine.Session
		list []string
		ok   bool
	}{
		{"whole/short", whole, peptides[:len(peptides)-1], false},
		{"whole/long", whole, longer, false},
		{"whole/exact", whole, peptides, true},
		{"slice/short", slice, peptides[:slice.MappingLen()-1], false},
		{"slice/global", slice, peptides, true},
	} {
		if err := tc.sess.Save(t.TempDir(), tc.list); (err == nil) != tc.ok {
			t.Errorf("%s: Save error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestSaveReportsFlushError: store files are written through a buffer, so
// a peptide list shorter than the buffer reaches the disk only when it is
// flushed. A flush that fails (here: peptides.txt is /dev/full) must fail
// Save with an error naming the file, and leave no manifest behind.
func TestSaveReportsFlushError(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs /dev/full")
	}
	c := oracle.CellOf(t, "generated", "open-all")
	peptides := c.Corpus.Peptides
	if n := len(strings.Join(peptides, "\n")) + 1; n >= engine.StoreWriteBuffer {
		t.Fatalf("peptide list of %d bytes fills the %d-byte write buffer before the flush", n, engine.StoreWriteBuffer)
	}
	sess, err := engine.NewSession(peptides, engine.SessionConfig{Config: c.Config(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, engine.PeptidesFile)); err != nil {
		t.Fatal(err)
	}
	err = sess.Save(dir, peptides)
	if err == nil || !strings.Contains(err.Error(), "engine: writing "+engine.PeptidesFile) {
		t.Fatalf("Save into a full device: error %v, want one naming %s", err, engine.PeptidesFile)
	}
	if _, err := os.Stat(filepath.Join(dir, engine.ManifestFile)); !os.IsNotExist(err) {
		t.Fatalf("a failed Save left a manifest (stat error %v)", err)
	}
}

// editManifest applies fn to the parsed manifest JSON and writes it back.
func editManifest(t *testing.T, dir string, fn func(map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, "manifest.json")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatal(err)
	}
	fn(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsCorruptStores drives the corruption suite. Every open,
// heap (MapStore false) and mapped alike, verifies the whole store before
// it returns, so each must fail at OpenSessionOptions for every tampered
// store — "bit-flipped shard" and "swapped shard files" included, which a
// mapped open once let through to the first Search.
func TestOpenRejectsCorruptStores(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		tamper  func(t *testing.T, dir string)
		message string
		names   []string // what the refusal must say, heap and mapped
	}{
		{"bit-flipped shard", func(t *testing.T, dir string) {
			path := filepath.Join(dir, "shard-0001.slmx")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "a flipped bit in a shard file must fail the checksum", nil},
		{"truncated shard", func(t *testing.T, dir string) {
			path := filepath.Join(dir, "shard-0000.slmx")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}, "a truncated shard file must fail", nil},
		{"version bump", func(t *testing.T, dir string) {
			editManifest(t, dir, func(m map[string]any) { m["format_version"] = engine.StoreFormatVersion + 1 })
		}, "a future manifest version must be refused", nil},
		{"format version 1", func(t *testing.T, dir string) {
			// With a field only a v1 manifest had, so the refusal has to
			// come from the version and not from the strict decode.
			editManifest(t, dir, func(m map[string]any) {
				m["format_version"] = 1
				m["build"] = []any{}
			})
		}, "a v1 store must be refused", []string{"format version 1", "lbe-index -out"}},
		{"shard count mismatch", func(t *testing.T, dir string) {
			editManifest(t, dir, func(m map[string]any) {
				m["config"].(map[string]any)["Shards"] = 3
			})
		}, "a manifest/shard-count mismatch must be refused", nil},
		{"missing shard file", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, "shard-0001.slmx")); err != nil {
				t.Fatal(err)
			}
		}, "a missing shard file must fail", nil},
		{"swapped shard files", func(t *testing.T, dir string) {
			a := filepath.Join(dir, "shard-0000.slmx")
			b := filepath.Join(dir, "shard-0001.slmx")
			tmp := filepath.Join(dir, "tmp.slmx")
			for _, mv := range [][2]string{{a, tmp}, {b, a}, {tmp, b}} {
				if err := os.Rename(mv[0], mv[1]); err != nil {
					t.Fatal(err)
				}
			}
		}, "shard files swapped between slots must fail the manifest CRC", nil},
		{"tampered manifest params", func(t *testing.T, dir string) {
			editManifest(t, dir, func(m map[string]any) {
				m["config"].(map[string]any)["Params"].(map[string]any)["MaxQueryPeaks"] = 7
			})
		}, "manifest params disagreeing with the shard-embedded params must be refused", nil},
		{"shard ids out of order", func(t *testing.T, dir string) {
			editManifest(t, dir, func(m map[string]any) {
				m["shard_set"].(map[string]any)["shard_ids"] = []int{1, 0}
			})
		}, "global shard ids must be strictly increasing", nil},
		{"shard id out of range", func(t *testing.T, dir string) {
			editManifest(t, dir, func(m map[string]any) {
				m["shard_set"].(map[string]any)["shard_ids"] = []int{0, 2}
			})
		}, "a global shard id beyond total_shards must be refused", nil},
		{"one set of a larger cluster", func(t *testing.T, dir string) {
			editManifest(t, dir, func(m map[string]any) {
				m["shard_set"].(map[string]any)["total_shards"] = 3
			})
		}, "a one-set store must hold every shard of its cluster", nil},
		{"no shard set", func(t *testing.T, dir string) {
			editManifest(t, dir, func(m map[string]any) { delete(m, "shard_set") })
		}, "a manifest without its shard_set block must be refused", nil},
		{"row count mismatch", func(t *testing.T, dir string) {
			editManifest(t, dir, func(m map[string]any) {
				shard := m["shards"].([]any)[1].(map[string]any)
				shard["rows"] = shard["rows"].(float64) + 1
			})
		}, "a shard decoding to other rows than the manifest recorded must be refused", nil},
		{"peptide count mismatch", func(t *testing.T, dir string) {
			editManifest(t, dir, func(m map[string]any) { m["num_peptides"] = m["num_peptides"].(float64) + 1 })
		}, "a peptide list of another length than the manifest recorded must be refused", nil},
		{"missing manifest", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, "manifest.json")); err != nil {
				t.Fatal(err)
			}
		}, "a store without a manifest must be refused", nil},
		{"traversal file name", func(t *testing.T, dir string) {
			editManifest(t, dir, func(m map[string]any) {
				m["mapping"].(map[string]any)["name"] = "../mapping.lbmt"
			})
		}, "a manifest name escaping the store directory must be refused", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, _ := storeFixture(t, 2, true)
			tc.tamper(t, dir)
			sess, _, heapErr := engine.OpenSessionOptions(dir, engine.OpenOptions{MapStore: false})
			if heapErr == nil {
				sess.Close()
				t.Error(tc.message)
			}
			sess, _, err := engine.OpenSession(dir)
			if err == nil {
				sess.Close()
				t.Errorf("mapped open: %s", tc.message)
			}
			for _, want := range tc.names {
				for _, err := range []error{heapErr, err} {
					if err != nil && !strings.Contains(err.Error(), want) {
						t.Errorf("refusal %q does not name %q", err, want)
					}
				}
			}
		})
	}

	// The same swap after a mapped open moves no byte the session serves:
	// the deferred check runs over the mappings, which still hold the
	// originals, so the first Search must answer as a heap open of the
	// untouched store does.
	t.Run("shard files swapped after a mapped open", func(t *testing.T) {
		dir, _ := storeFixture(t, 2, true)
		queries := oracle.Generated(t).Queries
		ctx := context.Background()
		heap, _, err := engine.OpenSessionOptions(dir, engine.OpenOptions{MapStore: false})
		if err != nil {
			t.Fatal(err)
		}
		want, err := heap.Search(ctx, queries)
		heap.Close()
		if err != nil {
			t.Fatal(err)
		}
		sess, _, err := engine.OpenSession(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if runtime.GOOS == "linux" && sess.MappedShards() != 2 {
			t.Fatalf("%d of 2 shards mapped", sess.MappedShards())
		}
		for _, tc := range cases {
			if tc.name == "swapped shard files" {
				tc.tamper(t, dir)
			}
		}
		got, err := sess.Search(ctx, queries)
		if err != nil {
			t.Fatalf("the mapped originals were refused: %v", err)
		}
		if !reflect.DeepEqual(got.PSMs, want.PSMs) {
			t.Error("the mapped session answers differently from the untouched store")
		}
	})
}

// TestRefusedOpenReleasesMappings: a store refused after some of its
// shards mapped — shard 1 fails its checksum while shard 0 maps cleanly,
// both map and a cross-file check refuses them, or shard 0 maps and then
// fails the manifest's CRC — leaves no mapping of its shard files behind,
// as /proc/self/maps lists them.
func TestRefusedOpenReleasesMappings(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	// mapsOf returns the lines of /proc/self/maps naming a file in dir.
	mapsOf := func(t *testing.T, dir string) []string {
		t.Helper()
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, line := range strings.Split(string(maps), "\n") {
			if strings.Contains(line, dir+string(filepath.Separator)) {
				out = append(out, line)
			}
		}
		return out
	}
	store := func(t *testing.T) string {
		t.Helper()
		dir, _ := storeFixture(t, 2, true)
		dir, err := filepath.EvalSymlinks(dir)
		if err != nil {
			t.Fatal(err)
		}
		return dir
	}

	// The check sees a live session's mappings.
	dir := store(t)
	sess, _, err := engine.OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sess.MappedShards() == 2 && len(mapsOf(t, dir)) == 0 {
		t.Fatal("/proc/self/maps lists no mapping of an open store")
	}
	sess.Close()

	for name, tamper := range map[string]func(t *testing.T, dir string){
		"shard 1 corrupt": func(t *testing.T, dir string) {
			path := filepath.Join(dir, "shard-0001.slmx")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"row count mismatch": func(t *testing.T, dir string) {
			editManifest(t, dir, func(m map[string]any) {
				shard := m["shards"].([]any)[1].(map[string]any)
				shard["rows"] = shard["rows"].(float64) + 1
			})
		},
		"shard 0 off its manifest CRC": func(t *testing.T, dir string) {
			editManifest(t, dir, func(m map[string]any) {
				shard := m["shards"].([]any)[0].(map[string]any)
				shard["crc32"] = float64(uint32(shard["crc32"].(float64)) ^ 1)
			})
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := store(t)
			tamper(t, dir)
			if sess, _, err := engine.OpenSession(dir); err == nil {
				sess.Close()
				t.Fatal("a tampered store opened")
			}
			if maps := mapsOf(t, dir); len(maps) > 0 {
				t.Errorf("a refused open left its shard files mapped:\n%s", strings.Join(maps, "\n"))
			}
		})
	}
}

// TestSetSchedule: the whole value goes in — every field applied as given,
// zeros included. SetSchedule swaps the pool; a Search started before it
// finishes on the pool (and the batch size) it snapshotted.
func TestSetSchedule(t *testing.T) {
	c := oracle.CellOf(t, "generated", "open-all")
	queries := c.Corpus.Queries
	sess, err := engine.NewSession(c.Corpus.Peptides, engine.SessionConfig{Config: c.Config(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()

	for _, sc := range []engine.Schedule{
		{ThreadsPerRank: 3, BatchSize: 5, BuildWorkers: 2},
		{}, // zeros are values, not "keep"
		{ThreadsPerRank: 1},
	} {
		sess.SetSchedule(sc)
		if got := sess.Config().Schedule; got != sc {
			t.Fatalf("SetSchedule(%+v) left %+v", sc, got)
		}
	}

	// One worker, five queries a batch; the schedule moves to three
	// workers and one batch a set while the first batch is handed over.
	sess.SetSchedule(engine.Schedule{ThreadsPerRank: 1, BatchSize: 5})
	before, n := sess.Pool(), sess.Batches()
	err = sess.Each(ctx, queries, func(engine.BatchResult) error {
		sess.SetSchedule(engine.Schedule{ThreadsPerRank: 3})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Pool() == before {
		t.Fatal("SetSchedule must move the session to a new pool")
	}
	if got, want := sess.Batches()-n, int64((len(queries)+4)/5); got != want {
		t.Fatalf("a run in flight ran %d batches, want the %d of the batch size it started with", got, want)
	}
	if got := len(sess.SchedulerStats().Workers); got != 1 {
		t.Fatalf("a run in flight ran on %d workers, want the 1 of the pool it started with", got)
	}

	// BatchSize 0 is one batch per Search, however many queries.
	sess.SetSchedule(engine.Schedule{})
	n = sess.Batches()
	if _, err := sess.Search(ctx, queries); err != nil {
		t.Fatal(err)
	}
	if got := sess.Batches() - n; got != 1 {
		t.Fatalf("BatchSize 0: a %d-query Search ran %d batches, want 1", len(queries), got)
	}
	sess.SetSchedule(engine.Schedule{BatchSize: 5})
	n = sess.Batches()
	if _, err := sess.Search(ctx, queries); err != nil {
		t.Fatal(err)
	}
	if got, want := sess.Batches()-n, int64((len(queries)+4)/5); got != want {
		t.Fatalf("BatchSize 5: a %d-query Search ran %d batches, want %d", len(queries), got, want)
	}
}

// TestOpenedSessionSchedulesForThisMachine: a store records what was
// built, not how the builder ran — a session opened from it starts on the
// default schedule of the process that opened it.
func TestOpenedSessionSchedulesForThisMachine(t *testing.T) {
	c := oracle.CellOf(t, "generated", "open-all")
	peptides, queries := c.Corpus.Peptides, c.Corpus.Queries
	cfg := engine.SessionConfig{Config: c.Config(), Shards: 2}
	cfg.Schedule = engine.Schedule{ThreadsPerRank: 1, BatchSize: 17}
	built, err := engine.NewSession(peptides, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	dir := filepath.Join(t.TempDir(), "store")
	if err := built.Save(dir, peptides); err != nil {
		t.Fatal(err)
	}
	opened, _, err := engine.OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if got, want := opened.Config().Schedule, engine.DefaultSessionConfig().Schedule; got != want {
		t.Fatalf("opened session runs under %+v, want this process's default %+v", got, want)
	}
	if runtime.GOMAXPROCS(0) == 1 {
		t.Skip("one core: the builder's single worker and this machine's are the same count")
	}
	if _, err := opened.Search(context.Background(), queries); err != nil {
		t.Fatal(err)
	}
	if got := len(opened.SchedulerStats().Workers); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("opened session ran %d scheduler workers on a %d-core process", got, runtime.GOMAXPROCS(0))
	}
}

// perturb moves one configuration field to another valid value, chosen by
// the field's kind alone: a field added to Shape or Schedule later is
// covered without a list to extend (a kind not handled here fails loudly).
func perturb(t *testing.T, f reflect.Value) {
	t.Helper()
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint8:
		f.SetUint(f.Uint() ^ 1)
	case reflect.Slice: // Weights: one per shard of the two-shard fixture
		f.Set(reflect.ValueOf([]float64{1, 2}))
	case reflect.Struct: // Params, Group: their first plain int
		for i := 0; i < f.NumField(); i++ {
			if f.Field(i).Kind() == reflect.Int {
				perturb(t, f.Field(i))
				return
			}
		}
		t.Fatalf("no int field to perturb in %s", f.Type())
	default:
		t.Fatalf("no perturbation for a %s field", f.Kind())
	}
}

// storeFiles reads every file under dir, keyed by its relative path.
func storeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSessionDigestConsistency pins the digest contract the router's
// consistency gate is built on: replicas built from the same database
// with the same Shape agree, whatever their Schedule; replicas opened
// from a store agree with each other and with the saver; every Shape
// field and the shard count move both the fresh digest and the manifest;
// and two independent builds save byte-identical stores.
func TestSessionDigestConsistency(t *testing.T) {
	t.Parallel()
	c := oracle.CellOf(t, "generated", "open-all")
	peptides := c.Corpus.Peptides
	cfg := engine.SessionConfig{Config: c.Config(), Shards: 2}

	// identity builds cfg and returns its fresh digest and the manifest
	// it saves.
	identity := func(cfg engine.SessionConfig) (fresh, manifest string) {
		t.Helper()
		sess, err := engine.NewSession(peptides, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		fresh = sess.Digest()
		dir := t.TempDir()
		if err := sess.Save(dir, peptides); err != nil {
			t.Fatal(err)
		}
		if sess.Digest() == fresh {
			t.Fatal("Save did not re-anchor the digest to the manifest")
		}
		return fresh, storeFiles(t, dir)[engine.ManifestFile]
	}
	fresh, manifest := identity(cfg)
	if fresh == "" {
		t.Fatal("fresh session has no digest")
	}

	// Whatever lands in Shape is identity; whatever lands in Schedule is
	// not, and is not in the store at all.
	moved := cfg
	moved.Shards = 3
	if f, m := identity(moved); f == fresh || m == manifest {
		t.Error("a different shard count left the digest or the manifest unmoved")
	}
	for i := 0; i < reflect.TypeOf(engine.Shape{}).NumField(); i++ {
		moved := cfg
		perturb(t, reflect.ValueOf(&moved.Shape).Elem().Field(i))
		if f, m := identity(moved); f == fresh || m == manifest {
			t.Errorf("Shape.%s left the digest or the manifest unmoved", reflect.TypeOf(engine.Shape{}).Field(i).Name)
		}
	}
	for i := 0; i < reflect.TypeOf(engine.Schedule{}).NumField(); i++ {
		name := reflect.TypeOf(engine.Schedule{}).Field(i).Name
		moved := cfg
		perturb(t, reflect.ValueOf(&moved.Schedule).Elem().Field(i))
		if f, m := identity(moved); f != fresh || m != manifest {
			t.Errorf("Schedule.%s moved the digest or the manifest", name)
		}
		if strings.Contains(manifest, name) {
			t.Errorf("the manifest mentions Schedule.%s", name)
		}
	}

	// Two builds that share nothing but their inputs are one store: every
	// file byte-equal, whole and partitioned (cluster.json included), and
	// every open of either reports the one digest.
	var stores, clusters [2]map[string]string
	var digests []string
	for i, sc := range []engine.Schedule{{BuildWorkers: 1, ThreadsPerRank: 1}, {BuildWorkers: 3, ThreadsPerRank: 2}} {
		bcfg := cfg
		bcfg.Schedule = sc
		sess, err := engine.NewSession(peptides, bcfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		dir, cdir := t.TempDir(), t.TempDir()
		if _, err := sess.SavePartitioned(cdir, peptides, 2); err != nil {
			t.Fatal(err)
		}
		if err := sess.Save(dir, peptides); err != nil {
			t.Fatal(err)
		}
		stores[i], clusters[i] = storeFiles(t, dir), storeFiles(t, cdir)
		digests = append(digests, sess.Digest())
		for _, mapped := range []bool{true, false} {
			o, _, err := engine.OpenSessionOptions(dir, engine.OpenOptions{MapStore: mapped})
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, o.Digest())
			o.Close()
		}
	}
	if !reflect.DeepEqual(stores[0], stores[1]) || len(stores[0]) != 5 {
		t.Errorf("two builds of one database saved different stores (%d files)", len(stores[0]))
	}
	if !reflect.DeepEqual(clusters[0], clusters[1]) || len(clusters[0]) != 9 {
		t.Errorf("two builds of one database saved different partitioned stores (%d files)", len(clusters[0]))
	}
	for _, d := range digests {
		if d != digests[0] {
			t.Fatalf("savers and opens of one store disagree on its digest: %v", digests)
		}
	}
}
