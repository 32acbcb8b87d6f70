package api_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"lbe/internal/api"
	"lbe/internal/engine"
	"lbe/internal/oracle"
)

func psm(peptide uint32, score float64, shard int) api.PSMJSON {
	return api.PSMJSON{Peptide: peptide, Score: score, Shared: 3, Precursor: 500.25, Shard: shard}
}

// TestMergeSearchResponses is the contract of the scatter/gather merge.
// On every oracle cell, the cell's RunSerial matches are split by peptide
// into 2 and into 3 disjoint sets, as shard-sets partition a database;
// each set's answer, cut to TopK, is rendered as its holder renders it,
// and the merge must render byte for byte what the whole RunSerial answer
// renders. Hand-built cases keep a duplicated row deterministic and hold
// the refuse-to-guess paths: no responses, mismatched result counts,
// mismatched scans and a list out of ComparePSM order.
func TestMergeSearchResponses(t *testing.T) {
	for _, c := range oracle.Cells(t) {
		t.Run(c.Name(), func(t *testing.T) {
			qs, peptides := c.Corpus.Queries, c.Corpus.Peptides
			every := oracle.Cell{Corpus: c.Corpus, Shape: oracle.Shape{Name: c.Shape.Name + "/every-match", Tol: c.Shape.Tol}}
			all := every.Serial(t).PSMs
			for _, sets := range []int{2, 3} {
				parts := make([]api.SearchResponse, sets)
				for set := range parts {
					psms := make([][]engine.PSM, len(all))
					for q, ms := range all {
						psms[q] = []engine.PSM{}
						for _, m := range ms {
							if int(m.Peptide)%sets == set {
								psms[q] = append(psms[q], m)
							}
						}
						if k := c.Shape.TopK; k > 0 && len(psms[q]) > k {
							psms[q] = psms[q][:k]
						}
					}
					parts[set] = api.BuildSearchResponse(qs, psms, peptides)
				}
				merged, err := api.MergeSearchResponses(parts, c.Shape.TopK)
				if err != nil {
					t.Fatal(err)
				}
				oracle.Wire(t, fmt.Sprint(sets, " sets merged"), api.AppendSearchResponse(nil, merged), qs, c.Serial(t).PSMs, peptides)
			}
		})
	}

	cases := []struct {
		name    string
		parts   []api.SearchResponse
		topK    int
		want    api.SearchResponse
		wantErr bool
	}{
		{
			name: "duplicate rows from a misbehaving set stay deterministic",
			parts: []api.SearchResponse{
				{Results: []api.QueryResult{{Scan: 1, PSMs: []api.PSMJSON{psm(4, 8, 1)}}}},
				{Results: []api.QueryResult{{Scan: 1, PSMs: []api.PSMJSON{psm(4, 8, 1)}}}},
			},
			topK: 1,
			want: api.SearchResponse{Results: []api.QueryResult{
				{Scan: 1, PSMs: []api.PSMJSON{psm(4, 8, 1)}},
			}},
		},
		{
			name: "a list out of ComparePSM order",
			parts: []api.SearchResponse{
				{Results: []api.QueryResult{{Scan: 1, PSMs: []api.PSMJSON{psm(0, 9, 0)}}}},
				{Results: []api.QueryResult{{Scan: 1, PSMs: []api.PSMJSON{psm(6, 4, 2), psm(5, 7, 2)}}}},
			},
			wantErr: true,
		},
		{
			name:    "no responses",
			parts:   nil,
			wantErr: true,
		},
		{
			name: "result count mismatch",
			parts: []api.SearchResponse{
				{Results: []api.QueryResult{{Scan: 1}, {Scan: 2}}},
				{Results: []api.QueryResult{{Scan: 1}}},
			},
			wantErr: true,
		},
		{
			name: "scan mismatch",
			parts: []api.SearchResponse{
				{Results: []api.QueryResult{{Scan: 1}}},
				{Results: []api.QueryResult{{Scan: 2}}},
			},
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := api.MergeSearchResponses(tc.parts, tc.topK)
			if tc.wantErr {
				if err == nil {
					t.Fatal("expected an error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("merged:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestMergeRendersEmptyPSMsAsArray pins the byte-level detail the
// scatter path depends on: a query with no matches must render
// "psms":[] exactly as api.BuildSearchResponse does, never "psms":null.
func TestMergeRendersEmptyPSMsAsArray(t *testing.T) {
	merged, err := api.MergeSearchResponses([]api.SearchResponse{
		{Results: []api.QueryResult{{Scan: 7, PSMs: []api.PSMJSON{}}}},
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"results":[{"scan":7,"psms":[]}]}`
	if string(doc) != want {
		t.Fatalf("rendered %s, want %s", doc, want)
	}
}
