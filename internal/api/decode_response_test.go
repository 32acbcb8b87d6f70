package api

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// checkResponseParity fails t unless a body DecodeSearchResponse accepts
// is one json.Unmarshal accepts too, decoded to the same value.
func checkResponseParity(t *testing.T, body []byte) {
	t.Helper()
	got, err := DecodeSearchResponse(body)
	if err != nil {
		return
	}
	var want SearchResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("body %q: decoder accepted what encoding/json refuses: %v", body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\ndecoder:       %#v\nencoding/json: %#v", body, got, want)
	}
}

// checkResponseRoundTrip fails t unless DecodeSearchResponse accepts a
// body AppendSearchResponse wrote and agrees with encoding/json on it.
func checkResponseRoundTrip(t *testing.T, body []byte) {
	t.Helper()
	if _, err := DecodeSearchResponse(body); err != nil {
		t.Fatalf("encoder output %q refused: %v", body, err)
	}
	checkResponseParity(t, body)
}

// responseSeeds are reply bodies the decoder accepts — encoder output in
// every shape — and bodies one rule away from them that it refuses.
func responseSeeds() []string {
	psm := `{"peptide":7,"sequence":"PEPK","score":31.5,"shared":4,"precursor":900.5,"shard":1}`
	return []string{
		string(AppendSearchResponse(nil, sampleResponse())),
		`{"results":[{"scan":3,"psms":[` + psm + `,` + psm + `]}]}` + "\n",
		`{"results":[]}`,
		`{"results":null}`,
		`{"results":[{"scan":1,"psms":null},{"scan":-2,"psms":[]}]}`,
		` { "results" : [ { "psms" : [ ] , "scan" : 0 } ] } `,
		`{"results":[{"scan":1,"psms":[{"shard":0,"precursor":1e-7,"shared":65535,"score":-0,"peptide":4294967295}]}]}`,
		`{"results":[{"scan":1,"psms":[{"peptide":1,"sequence":"\u003cK\u0026R\u003e\u2028\ufffd\ud800","score":1,"shared":1,"precursor":1,"shard":1}]}]}`,
		`{"results":[{"scan":1,"psms":[{"peptide":1,"sequence":"é€𝄞","score":1,"shared":1,"precursor":1,"shard":1}]}]}`,
		`{"\u0072esults":[]}`,
		// Refused: json.Unmarshal accepts each of these, the decoder does not.
		`{"Results":[]}`,
		`{"results":[],"extra":1}`,
		`{"results":[],"results":[]}`,
		`{}`,
		`null`,
		`{"results":[null]}`,
		`{"results":[{"scan":1}]}`,
		`{"results":[{"scan":null,"psms":[]}]}`,
		`{"results":[{"scan":1,"psms":[{"peptide":1,"score":1,"shared":1,"precursor":1}]}]}`,
		`{"results":[{"scan":1,"psms":[{"peptide":1,"sequence":null,"score":1,"shared":1,"precursor":1,"shard":1}]}]}`,
		`{"results":[{"scan":1,"psms":[{"peptide":1,"sequence":"` + "\xff" + `","score":1,"shared":1,"precursor":1,"shard":1}]}]}`,
		// Refused by both.
		`{"results":[{"scan":1,"psms":[{"peptide":4294967296,"score":1,"shared":1,"precursor":1,"shard":1}]}]}`,
		`{"results":[{"scan":1,"psms":[{"peptide":-1,"score":1,"shared":1,"precursor":1,"shard":1}]}]}`,
		`{"results":[{"scan":1,"psms":[{"peptide":1,"score":1e400,"shared":1,"precursor":1,"shard":1}]}]}`,
		`{"results":[{"scan":1.5,"psms":[]}]}`,
		`{"results":[]} x`,
		`{"results":[`,
		``,
	}
}

// FuzzDecodeSearchResponse holds the reply decoder to encoding/json:
// whatever it accepts decodes to json.Unmarshal's value. That it accepts
// every reply the encoder writes is FuzzAppendSearchResponse's half.
func FuzzDecodeSearchResponse(f *testing.F) {
	for _, s := range responseSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(checkResponseParity)
}

// TestDecodeSearchResponseCases pins what the seeds decide: the first ten
// are accepted, the rest refused.
func TestDecodeSearchResponseCases(t *testing.T) {
	for i, s := range responseSeeds() {
		_, err := DecodeSearchResponse([]byte(s))
		if accept := i < 10; (err == nil) != accept {
			t.Errorf("seed %d %q: error %v, want accepted %v", i, s, err, accept)
		}
		checkResponseParity(t, []byte(s))
	}
	r, err := DecodeSearchResponse([]byte(responseSeeds()[4]))
	if err != nil || r.Results[0].PSMs != nil || r.Results[1].PSMs == nil {
		t.Fatalf(`"psms":null must decode to nil and "psms":[] to empty: %#v, %v`, r, err)
	}
	if !strings.Contains(string(AppendSearchResponse(nil, r)), `"psms":null},{"scan":-2,"psms":[]}`) {
		t.Fatal("null and empty lists do not re-encode as they came")
	}
}

// TestDecodeSearchResponseAllocs pins the decoder's allocation count on a
// benchmark-shaped reply: the body's string copy, the results and the
// PSM backing array.
func TestDecodeSearchResponseAllocs(t *testing.T) {
	body := AppendSearchResponse(nil, sampleResponse())
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeSearchResponse(body); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("DecodeSearchResponse allocates %.1f times per reply, want at most 3", n)
	}
}

// BenchmarkDecodeSearchResponse decodes a benchmark-shaped reply with the
// codec and with what lbe-router ran before it, json.Unmarshal.
func BenchmarkDecodeSearchResponse(b *testing.B) {
	body := AppendSearchResponse(nil, sampleResponse())
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeSearchResponse(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var r SearchResponse
			if err := json.Unmarshal(body, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
