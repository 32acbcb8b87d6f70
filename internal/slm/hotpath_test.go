package slm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
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
			names = append(names, recvQualified(fd))
		}
	}
	sort.Strings(names)
	return names
}

// recvQualified renders Recv.Name for methods and Name for functions.
func recvQualified(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// TestHotpathAnnotationsMatchAllocGuards pins the //lbe:hotpath set to
// the functions whose zero-alloc behavior the AllocsPerRun guards in
// alloc_test.go actually exercise (Search and SearchCut drive the full
// annotated call tree:
// searchScratch, ensure, quantize, bucketSpan, precursorWindow,
// postingsLowerBound, accumulate, nextHit, hyperscore, cutTopK,
// sortMatches, copyMatches; nextHit only with a row view built, as
// TestRowScanZeroAllocWarmScratch builds one). Annotating a new
// function here without extending the runtime guards — or vice versa —
// fails this test, keeping the static gate and the dynamic gate in
// lockstep.
func TestHotpathAnnotationsMatchAllocGuards(t *testing.T) {
	got := hotpathFuncs(t, ".")
	want := []string{
		"Index.Search",
		"Index.SearchCut",
		"Index.bucketSpan",
		"Index.precursorWindow",
		"Index.searchScratch",
		"Scratch.cutTopK",
		"Scratch.ensure",
		"Scratch.quantize",
		"accumulate",
		"copyMatches",
		"hyperscore",
		"nextHit",
		"postingsLowerBound",
		"sortMatches",
	}
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("//lbe:hotpath annotations = %v, want %v (keep annotations and AllocsPerRun guards in lockstep)", got, want)
	}
}
