package sched

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"lbe/internal/slm"
	"lbe/internal/spectrum"
)

// hotpathFuncs parses the package's non-test sources and returns the
// receiver-qualified names of every function annotated //lbe:hotpath.
func hotpathFuncs(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, dir+"/"+name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			annotated := false
			for _, c := range fd.Doc.List {
				text := strings.TrimPrefix(c.Text, "//")
				if text == "lbe:hotpath" || strings.HasPrefix(text, "lbe:hotpath ") {
					annotated = true
				}
			}
			if !annotated {
				continue
			}
			qualified := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					qualified = id.Name + "." + fd.Name.Name
				}
			}
			names = append(names, qualified)
		}
	}
	sort.Strings(names)
	return names
}

// TestHotpathAnnotationsMatchAllocGuards pins the //lbe:hotpath set in
// this package to the functions TestRunChunkZeroAllocWarm below (and the
// deque's uncontended operations it drives) actually guard at runtime.
func TestHotpathAnnotationsMatchAllocGuards(t *testing.T) {
	got := hotpathFuncs(t, ".")
	want := []string{
		"deque.pop",
		"deque.size",
		"deque.stealHalf",
		"workerState.runChunk",
	}
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("//lbe:hotpath annotations = %v, want %v (keep annotations and AllocsPerRun guards in lockstep)", got, want)
	}
}

// TestRunChunkZeroAllocWarm guards the per-chunk worker loop: with a
// warm Scratch, searching a chunk of prepared queries that match nothing
// must not allocate at all (the result copy-out is the only allowed
// allocation, and it only happens for queries with matches).
func TestRunChunkZeroAllocWarm(t *testing.T) {
	shards, _ := testShards(t, 1)

	// Precursors far outside every peptide window: phase 1 admits no
	// candidate rows, so Search returns nil without copying.
	var misses []spectrum.Experimental
	for i := 0; i < 4; i++ {
		q := spectrum.Experimental{Scan: i + 1, PrecursorMZ: 90000 + float64(i), Charge: 2}
		q.Peaks = append(q.Peaks, spectrum.Peak{MZ: 100 + float64(i), Intensity: 1})
		q.SortPeaks()
		misses = append(misses, spectrum.Preprocess(q, 50))
	}
	qs := prepared(misses)

	ws := NewPool(Options{}).acquire(1, 1)[0]
	out := [][][]slm.Match{make([][]slm.Match, len(misses))}
	c := chunk{shard: 0, lo: 0, hi: len(misses)}
	ws.runChunk(c, shards[0], qs, out) // warm the scratch

	if n := testing.AllocsPerRun(50, func() {
		ws.runChunk(c, shards[0], qs, out)
	}); n != 0 {
		t.Errorf("runChunk on all-miss chunk allocates %.1f times per run, want 0", n)
	}
	for q, m := range out[0] {
		if len(m) != 0 {
			t.Fatalf("query %d unexpectedly matched; the guard needs all-miss queries", q)
		}
	}
}

// TestWarmPoolRunAllocatesHeadersOnly guards the pool-lifetime worker
// states: once a Run has warmed the pool, another borrows the very same
// states — so the scratch inside them, which slm's guards prove
// allocation-free once warm, is never rebuilt — and allocates only the
// batch's result and bookkeeping headers: the match matrix, the per-shard
// chunk lists and deques, the telemetry slices, a goroutine and a steal
// transfer or two per worker, and one caller-owned copy per non-empty
// cell. The bound is 16 + 4·workers + 4·shards + shards·queries.
func TestWarmPoolRunAllocatesHeadersOnly(t *testing.T) {
	shards, qs := crowdedShards(t, 3)
	const workers = 2
	p := NewPool(Options{Workers: workers, TopK: 2, chunkSize: 2})
	pqs := prepared(qs)
	run := func() {
		if _, err := p.Run(context.Background(), shards, pqs); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: the pool now owns one sized scratch per worker
	warm := append([]*workerState(nil), p.free...)
	if len(warm) != workers {
		t.Fatalf("%d idle states after one Run, want %d", len(warm), workers)
	}

	bound := float64(16 + 4*workers + 4*len(shards) + len(shards)*len(qs))
	if n := testing.AllocsPerRun(20, run); n > bound {
		t.Errorf("warm Run allocates %.0f times, want <= %.0f", n, bound)
	}
	if len(p.free) != workers || !slices.Contains(warm, p.free[0]) || !slices.Contains(warm, p.free[1]) {
		t.Errorf("later Runs did not reuse the warm worker states")
	}
}
