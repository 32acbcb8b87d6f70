package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"lbe/internal/gen"
	"lbe/internal/spectrum"
)

// referenceDecode is the behaviour DecodeSearchRequest reproduces:
// encoding/json into a SearchRequest, then Experimental on every element.
func referenceDecode(body []byte) ([]spectrum.Experimental, error) {
	var req SearchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	qs := make([]spectrum.Experimental, len(req.Spectra))
	for i, sj := range req.Spectra {
		e, err := sj.Experimental()
		if err != nil {
			return nil, err
		}
		qs[i] = e
	}
	return qs, nil
}

// spectraKeys counts the top-level keys of body that select the spectra
// field, reading as far as body is well formed. It is the fuzz target's
// independent check that a repeated-spectra rejection is the documented
// one.
func spectraKeys(body []byte) int {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return 0
	}
	n := 0
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return n
		}
		if key, _ := tok.(string); strings.EqualFold(key, "spectra") {
			n++
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return n
		}
	}
	return n
}

// sameSpectra reports the first difference between two decodes, to the
// bit of every float; "" when they agree. A nil and an empty peak list
// are the same list.
func sameSpectra(got, want []spectrum.Experimental) string {
	if len(got) != len(want) {
		return "spectrum count differs"
	}
	bits := math.Float64bits
	for i, g := range got {
		w := want[i]
		if g.Scan != w.Scan || g.Charge != w.Charge ||
			bits(g.PrecursorMZ) != bits(w.PrecursorMZ) || bits(g.RetentionTime) != bits(w.RetentionTime) {
			return "spectrum header differs"
		}
		if len(g.Peaks) != len(w.Peaks) {
			return "peak count differs"
		}
		for j, p := range g.Peaks {
			if bits(p.MZ) != bits(w.Peaks[j].MZ) || bits(p.Intensity) != bits(w.Peaks[j].Intensity) {
				return "peak differs"
			}
		}
	}
	return ""
}

// bu starts a \u escape; spelled in two pieces so the escape reaches the
// body as six bytes.
const bu = "\\" + "u"

// decodeSeeds covers each behaviour the decoder promises to share with
// encoding/json, plus the repeated-spectra case where it does not.
func decodeSeeds() []string {
	ok := `{"spectra":[{"scan":7,"precursor_mz":512.77,"charge":2,"retention_time":31.5,"peaks":[[262.14,0.5],[147.11,1]]}]}`
	deep := func(levels int) string {
		return `{"spectra":[],"x":` + strings.Repeat("[", levels) + strings.Repeat("]", levels) + "}"
	}
	return []string{
		ok,
		" \t\r\n" + ok + " \n",
		// Keys fold case-insensitively after unescaping, Unicode folds
		// included.
		`{"SPECTRA":[{"Scan":3,"PRECURSOR_MZ":500.5,"pEaKs":[[1,2]]}]}`,
		`{"spectra":[{"sc` + bu + `0061n":4,"` + bu + `0070eaks":[[5,6]]}]}`,
		`{"spectra":[{"ſcan":5,"pea` + string(rune(0x212a)) + `s":[[5,6]]}]}`,
		`{"spe` + bu + `d800ctra":[{"scan":1}]}`,
		`{"spectra":[{"scan` + bu + `0000":1}]}`,
		"{\"spectra\":[{\"sc\xffan\":1}]}",
		// Unknown fields are skipped but must be valid JSON.
		`{"spectra":[{"x":{"y":[1,true,false,null,"s",{"z":-0.5e-3}]},"precursor_mz":1}],"extra":[]}`,
		`{"x":"` + bu + `d83d` + bu + `de00 ` + bu + `d800\"\\\/\b\f\n\r\t","spectra":[]}`,
		`{"spectra":[],"x":[1,]}`,
		`{"spectra":[],"x":{"a":1,}}`,
		`{"spectra":[],"x":{"a"}}`,
		`{"spectra":[],"x":{1:2}}`,
		`{"spectra":[],"x":"\x"}`,
		`{"spectra":[],"x":"` + bu + `12g4"}`,
		"{\"spectra\":[],\"x\":\"a\x01b\"}",
		`{"spectra":[],"x":tru}`,
		`{"spectra":[],"x":01}`,
		`{"spectra":[],"x":1.}`,
		`{"spectra":[],"x":-}`,
		`{"spectra":[],"x":1e+}`,
		`{"spectra":[],"x":.5}`,
		// null leaves the zero value, or the value a repeated key set.
		`null`,
		`{}`,
		`{"spectra":null}`,
		`{"spectra":[]}`,
		`{"spectra":[null,{"scan":null,"precursor_mz":null,"charge":null,"retention_time":null,"peaks":null}]}`,
		`{"spectra":[{"scan":5,"scan":null,"charge":2,"charge":3}]}`,
		// A repeated peaks key decodes over the earlier list's elements.
		`{"spectra":[{"peaks":[[1,2],[3,4]],"peaks":[[null,5]]}]}`,
		`{"spectra":[{"peaks":[[1,2],[3,4]],"peaks":[[5,6]],"peaks":[null,null]}]}`,
		`{"spectra":[{"peaks":[[1,2],[3,4]],"peaks":[],"peaks":[null,[7]]}]}`,
		`{"spectra":[{"peaks":[[1,2],[3,4]],"peaks":null,"peaks":[null]}]}`,
		`{"spectra":[{"peaks":[[9,9]]},{"peaks":[[1,2]],"peaks":[null,null]}]}`,
		// Extra pair elements are skipped; missing ones are zero.
		`{"spectra":[{"peaks":[[1,2,3,{"a":[]}],[4],[],[5,null]]}]}`,
		// Ints refuse fractions, exponents and overflow; floats refuse
		// overflow but not underflow.
		`{"spectra":[{"scan":1.5}]}`,
		`{"spectra":[{"scan":1e2}]}`,
		`{"spectra":[{"charge":9223372036854775808}]}`,
		`{"spectra":[{"charge":-9223372036854775808,"scan":-0}]}`,
		`{"spectra":[{"precursor_mz":1e400}]}`,
		`{"spectra":[{"precursor_mz":-1e400}]}`,
		`{"spectra":[{"precursor_mz":1e-400,"retention_time":-0}]}`,
		`{"spectra":[{"precursor_mz":1.7976931348623157e308,"peaks":[[4.9e-324,2E+2]]}]}`,
		// Type mismatches.
		`[]`, `"x"`, `5`, `true`,
		`{"spectra":{}}`, `{"spectra":"x"}`, `{"spectra":1}`,
		`{"spectra":[[1]]}`, `{"spectra":[1]}`, `{"spectra":[true]}`,
		`{"spectra":[{"peaks":[1]}]}`, `{"spectra":[{"peaks":{}}]}`,
		`{"spectra":[{"peaks":[["1",2]]}]}`, `{"spectra":[{"peaks":[[true,2]]}]}`,
		`{"spectra":[{"peaks":[[[1],2]]}]}`, `{"spectra":[{"scan":"5"}]}`,
		`{"spectra":[{"precursor_mz":{}}]}`,
		// Validation: negative values are refused, unsorted peaks sorted.
		`{"spectra":[{"precursor_mz":-5,"peaks":[[100,1]]}]}`,
		`{"spectra":[{"peaks":[[100,-1]]}]}`,
		`{"spectra":[{"peaks":[[300,1],[100,2],[200,3],[100,4]]}]}`,
		// Nesting: 10 000 levels in all pass, one more is refused.
		deep(9999),
		deep(10000),
		strings.Repeat("[", 1<<12),
		// Nothing but whitespace may follow the body.
		ok + " garbage",
		ok + "{}",
		ok + "]",
		"",
		"   ",
		`{"spectra":[]`,
		`{"spectra":[{"peaks":[[1,2]`,
		// The deliberate difference.
		`{"spectra":[{"scan":1}],"spectra":[{"scan":2}]}`,
		`{"spectra":null,"Spectra":[]}`,
	}
}

// checkDecodeParity fails t unless DecodeSearchRequest and
// referenceDecode agree on body.
func checkDecodeParity(t *testing.T, body []byte) {
	t.Helper()
	got, err := DecodeSearchRequest(body)
	if errors.Is(err, errRepeatedSpectra) {
		if n := spectraKeys(body); n < 2 {
			t.Fatalf("body %q: repeated-spectra rejection, but the body names spectra %d times", body, n)
		}
		return
	}
	want, wantErr := referenceDecode(body)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("body %q: decoder error %v, encoding/json error %v", body, err, wantErr)
	}
	if err == nil {
		if diff := sameSpectra(got, want); diff != "" {
			t.Fatalf("body %q: %s\ndecoder:       %+v\nencoding/json: %+v", body, diff, got, want)
		}
	}
}

// FuzzDecodeSearchRequest holds the decoder to encoding/json: the same
// bodies accepted, the same spectra out of them. The one excluded input
// is a body repeating the spectra key, which the decoder refuses.
func FuzzDecodeSearchRequest(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecodeParity)
}

// TestDecodeSearchRequestCases pins what the seeds decide, so a reader
// sees each rule's outcome without running the fuzzer.
func TestDecodeSearchRequestCases(t *testing.T) {
	peaks := func(body string) []spectrum.Peak {
		t.Helper()
		qs, err := DecodeSearchRequest([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return qs[len(qs)-1].Peaks
	}
	samePeaks := func(body string, want ...spectrum.Peak) {
		t.Helper()
		got := peaks(body)
		if len(got) != len(want) {
			t.Fatalf("%s: peaks %v, want %v", body, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: peaks %v, want %v", body, got, want)
			}
		}
	}
	samePeaks(`{"spectra":[{"peaks":[[300,1],[100,2],[200,3]]}]}`, spectrum.Peak{MZ: 100, Intensity: 2},
		spectrum.Peak{MZ: 200, Intensity: 3}, spectrum.Peak{MZ: 300, Intensity: 1})
	samePeaks(`{"spectra":[{"peaks":[[1,2,3],[4],[]]}]}`, spectrum.Peak{}, spectrum.Peak{MZ: 1, Intensity: 2},
		spectrum.Peak{MZ: 4})
	samePeaks(`{"spectra":[{"peaks":[[1,2],[3,4]],"peaks":[[5,6]],"peaks":[null,null]}]}`,
		spectrum.Peak{MZ: 3, Intensity: 4}, spectrum.Peak{MZ: 5, Intensity: 6})
	samePeaks(`{"spectra":[{"peaks":[[1,2],[3,4]],"peaks":[],"peaks":[null]}]}`, spectrum.Peak{})

	qs, err := DecodeSearchRequest([]byte(`{"SPECTRA":[{"ſcan":9,"scan":null,"x":[{}]},null]}`))
	if err != nil || len(qs) != 2 || qs[0].Scan != 9 || qs[1].Scan != 0 {
		t.Fatalf("folded keys, null and unknown fields: %+v, %v", qs, err)
	}
	for _, bad := range []string{
		`{"spectra":[{"scan":1.5}]}`,
		`{"spectra":[{"precursor_mz":1e400}]}`,
		`{"spectra":[]} garbage`,
		`{"spectra":[{"precursor_mz":-1}]}`,
	} {
		if _, err := DecodeSearchRequest([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", bad)
		}
	}
	if _, err := DecodeSearchRequest([]byte(`{"spectra":[],"spectra":[]}`)); !errors.Is(err, errRepeatedSpectra) {
		t.Errorf("repeated spectra: %v, want errRepeatedSpectra", err)
	}
}

// TestDecodeSearchRequestDeepNesting: a megabyte of '[' is a clean
// error, at the top level and inside a skipped field, not a stack
// overflow; 10 000 levels in all is encoding/json's limit.
func TestDecodeSearchRequestDeepNesting(t *testing.T) {
	for _, body := range []string{
		strings.Repeat("[", 1<<20),
		`{"x":` + strings.Repeat("[", 1<<20),
		`{"spectra":[{"x":` + strings.Repeat(`{"a":`, 1<<18),
	} {
		if _, err := DecodeSearchRequest([]byte(body)); err == nil {
			t.Fatalf("%d-byte nesting accepted", len(body))
		}
	}
	nest := func(levels int) []byte {
		return []byte(`{"x":` + strings.Repeat("[", levels) + strings.Repeat("]", levels) + "}")
	}
	if _, err := DecodeSearchRequest(nest(maxNestingDepth - 1)); err != nil {
		t.Fatalf("10 000 levels refused: %v", err)
	}
	if _, err := DecodeSearchRequest(nest(maxNestingDepth)); err == nil {
		t.Fatal("10 001 levels accepted")
	}
}

// sampleResponse is a benchmark-shaped reply: one spectrum, TopK 10.
func sampleResponse() SearchResponse {
	psms := make([]PSMJSON, 10)
	for i := range psms {
		psms[i] = PSMJSON{
			Peptide:   uint32(48213 + 977*i),
			Sequence:  "VLSEAEKDHMTLR"[:8+i%6],
			Score:     41.87213306478 / float64(i+1),
			Shared:    uint16(14 - i),
			Precursor: 1398.6812330114 + 0.0173*float64(i),
			Shard:     i % 4,
		}
	}
	return SearchResponse{Results: []QueryResult{{Scan: 1187, PSMs: psms}}}
}

// encodeJSON is what api.WriteJSON writes for r.
func encodeJSON(t testing.TB, r SearchResponse) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzAppendSearchResponse holds the encoder to json.Encoder's bytes
// over arbitrary finite floats, strings with every escape class, and
// nil, empty and repeated result and PSM lists — and holds
// DecodeSearchResponse to accepting every one of those bodies.
func FuzzAppendSearchResponse(f *testing.F) {
	ls, ps := string(rune(0x2028)), string(rune(0x2029))
	f.Add("PEPTIDEK", 41.87213306478, 1398.6812330114, uint32(3), uint16(7), 2, 1187, uint8(3))
	f.Add("", 0.0, math.Copysign(0, -1), uint32(0), uint16(0), 0, 0, uint8(0))
	f.Add("<a&b>", 1e-6, 1e21, uint32(math.MaxUint32), uint16(math.MaxUint16), -1, -5, uint8(1))
	f.Add(ls+"x"+ps, 9.999999999999999e-7, 999999999999999900000.0, uint32(1), uint16(1), 1, 1, uint8(2))
	f.Add("\xff\xfeok\xc3", -1e-7, 5e-324, uint32(9), uint16(9), 9, 9, uint8(3))
	f.Add("\x00\x01\b\f\n\r\t\"\\\x1f\x7f/", 1e-10, math.MaxFloat64, uint32(2), uint16(2), 2, 2, uint8(3))
	f.Add("é€𝄞", 123456789e-15, -1.5e300, uint32(4), uint16(4), math.MaxInt, math.MinInt, uint8(0x1f))
	f.Fuzz(func(t *testing.T, seq string, score, precursor float64, peptide uint32, shared uint16, shard, scan int, shape uint8) {
		if math.IsNaN(score) || math.IsInf(score, 0) || math.IsNaN(precursor) || math.IsInf(precursor, 0) {
			t.Skip("encoding/json refuses non-finite floats")
		}
		// shape: bits 0-1 the PSM count, bit 2 nil PSMs, bit 3 nil
		// results, bit 4 a second result.
		var psms []PSMJSON
		if shape&4 == 0 {
			psms = make([]PSMJSON, shape&3)
		}
		for i := range psms {
			psms[i] = PSMJSON{Peptide: peptide + uint32(i), Score: score, Shared: shared,
				Precursor: precursor, Shard: shard}
			if i%2 == 0 {
				psms[i].Sequence = seq
			}
		}
		var r SearchResponse
		if shape&8 == 0 {
			r.Results = []QueryResult{{Scan: scan, PSMs: psms}}
			if shape&16 != 0 {
				r.Results = append(r.Results, QueryResult{Scan: -scan, PSMs: []PSMJSON{}})
			}
		}
		want := encodeJSON(t, r)
		got := AppendSearchResponse([]byte("prefix"), r)
		if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("AppendSearchResponse wrote\n%q\njson.Encoder wrote\n%q", got, want)
		}
		checkResponseRoundTrip(t, want)
	})
}

// TestAppendSearchResponseZeroAlloc guards the //lbe:hotpath contract:
// into a buffer with room, encoding allocates nothing.
func TestAppendSearchResponseZeroAlloc(t *testing.T) {
	r := sampleResponse()
	r.Results[0].PSMs[0].Sequence = "<K&R>" + string(rune(0x2028)) + "\xff"
	dst := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() {
		dst = AppendSearchResponse(dst[:0], r)
	}); n != 0 {
		t.Errorf("AppendSearchResponse allocates %.1f times per run, want 0", n)
	}
	if !bytes.Equal(dst, encodeJSON(t, r)) {
		t.Fatalf("encoded bytes differ from json.Encoder's:\n%s", dst)
	}
}

// TestHotpathAnnotationsMatchAllocGuards pins the package's //lbe:hotpath
// set to what TestAppendSearchResponseZeroAlloc guards at run time:
// AppendSearchResponse (and through it appendPSMs, appendFloat and
// appendString, which lbevet's hotpathalloc follows).
func TestHotpathAnnotationsMatchAllocGuards(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var got []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				for _, c := range fd.Doc.List {
					if text := strings.TrimPrefix(c.Text, "//"); text == "lbe:hotpath" || strings.HasPrefix(text, "lbe:hotpath ") {
						got = append(got, fd.Name.Name)
					}
				}
			}
		}
	}
	if strings.Join(got, ",") != "AppendSearchResponse" {
		t.Errorf("//lbe:hotpath annotations = %v, want [AppendSearchResponse] (keep annotations and AllocsPerRun guards in lockstep)", got)
	}
}

// benchBodies are benchmark-shaped /search bodies: one generated
// spectrum each, marshalled as a client does.
func benchBodies(b *testing.B) [][]byte {
	b.Helper()
	cfg := gen.DefaultSpectraConfig()
	cfg.NumSpectra = 16
	qs, _, err := gen.Spectra([]string{
		"LGEHNIDVLEGNEQFINAAK", "YLYEIARPHPFFYAPELLYYANK", "DDSPDLPKLKPDPNTLCDEFK",
		"VLSEAEKDHMTLRGAFTDLK", "HPEYAVSVLLRLAKEYEATLEK", "AEFVEVTKLVTDLTK",
		"QTALVELLKHKPKATEEQLK", "LVNELTEFAKTCVADESHAGCEK",
	}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, len(qs))
	for i, q := range qs {
		if bodies[i], err = json.Marshal(SearchRequest{Spectra: []SpectrumJSON{FromExperimental(q)}}); err != nil {
			b.Fatal(err)
		}
	}
	return bodies
}

// BenchmarkDecodeSearchRequest decodes benchmark-shaped bodies with the
// codec and with what lbe-serve ran before it: a json.Decoder into a
// SearchRequest, then Experimental per spectrum.
func BenchmarkDecodeSearchRequest(b *testing.B) {
	bodies := benchBodies(b)
	size := 0
	for _, body := range bodies {
		size += len(body)
	}
	run := func(b *testing.B, decode func([]byte) error) {
		b.ReportAllocs()
		b.SetBytes(int64(size / len(bodies)))
		for i := 0; i < b.N; i++ {
			if err := decode(bodies[i%len(bodies)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("codec", func(b *testing.B) {
		run(b, func(body []byte) error {
			_, err := DecodeSearchRequest(body)
			return err
		})
	})
	b.Run("encoding-json", func(b *testing.B) {
		run(b, func(body []byte) error {
			var req SearchRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				return err
			}
			for _, sj := range req.Spectra {
				if _, err := sj.Experimental(); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// BenchmarkAppendSearchResponse encodes a benchmark-shaped reply with
// the codec into a reused buffer and with a json.Encoder, as
// api.WriteJSON does.
func BenchmarkAppendSearchResponse(b *testing.B) {
	r := sampleResponse()
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		var dst []byte
		for i := 0; i < b.N; i++ {
			dst = AppendSearchResponse(dst[:0], r)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
