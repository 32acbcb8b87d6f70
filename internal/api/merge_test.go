package api

import (
	"encoding/json"
	"reflect"
	"testing"
)

func psm(peptide uint32, score float64, shard int) PSMJSON {
	return PSMJSON{Peptide: peptide, Score: score, Shared: 3, Precursor: 500.25, Shard: shard}
}

// TestMergeSearchResponses is the table-driven contract of the
// scatter/gather merge: ordering, truncation, empty sets, duplicate
// rows, and the refuse-to-guess error paths, an unsorted list among them.
func TestMergeSearchResponses(t *testing.T) {
	cases := []struct {
		name    string
		parts   []SearchResponse
		topK    int
		want    SearchResponse
		wantErr bool
	}{
		{
			name: "interleaves by score and truncates to topK",
			parts: []SearchResponse{
				{Results: []QueryResult{{Scan: 1, PSMs: []PSMJSON{psm(0, 9, 0), psm(2, 5, 0)}}}},
				{Results: []QueryResult{{Scan: 1, PSMs: []PSMJSON{psm(5, 7, 2), psm(6, 4, 2)}}}},
			},
			topK: 3,
			want: SearchResponse{Results: []QueryResult{
				{Scan: 1, PSMs: []PSMJSON{psm(0, 9, 0), psm(5, 7, 2), psm(2, 5, 0)}},
			}},
		},
		{
			name: "equal scores order by peptide index",
			parts: []SearchResponse{
				{Results: []QueryResult{{Scan: 4, PSMs: []PSMJSON{psm(9, 6, 1)}}}},
				{Results: []QueryResult{{Scan: 4, PSMs: []PSMJSON{psm(3, 6, 2)}}}},
			},
			want: SearchResponse{Results: []QueryResult{
				{Scan: 4, PSMs: []PSMJSON{psm(3, 6, 2), psm(9, 6, 1)}},
			}},
		},
		{
			name: "empty shard-set results merge cleanly",
			parts: []SearchResponse{
				{Results: []QueryResult{{Scan: 2, PSMs: []PSMJSON{}}, {Scan: 3, PSMs: []PSMJSON{psm(1, 2, 0)}}}},
				{Results: []QueryResult{{Scan: 2, PSMs: []PSMJSON{}}, {Scan: 3, PSMs: []PSMJSON{}}}},
			},
			want: SearchResponse{Results: []QueryResult{
				{Scan: 2, PSMs: []PSMJSON{}},
				{Scan: 3, PSMs: []PSMJSON{psm(1, 2, 0)}},
			}},
		},
		{
			name: "duplicate rows from a misbehaving set stay deterministic",
			parts: []SearchResponse{
				{Results: []QueryResult{{Scan: 1, PSMs: []PSMJSON{psm(4, 8, 1)}}}},
				{Results: []QueryResult{{Scan: 1, PSMs: []PSMJSON{psm(4, 8, 1)}}}},
			},
			topK: 1,
			want: SearchResponse{Results: []QueryResult{
				{Scan: 1, PSMs: []PSMJSON{psm(4, 8, 1)}},
			}},
		},
		{
			name: "a list out of ComparePSM order",
			parts: []SearchResponse{
				{Results: []QueryResult{{Scan: 1, PSMs: []PSMJSON{psm(0, 9, 0)}}}},
				{Results: []QueryResult{{Scan: 1, PSMs: []PSMJSON{psm(6, 4, 2), psm(5, 7, 2)}}}},
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
			parts: []SearchResponse{
				{Results: []QueryResult{{Scan: 1}, {Scan: 2}}},
				{Results: []QueryResult{{Scan: 1}}},
			},
			wantErr: true,
		},
		{
			name: "scan mismatch",
			parts: []SearchResponse{
				{Results: []QueryResult{{Scan: 1}}},
				{Results: []QueryResult{{Scan: 2}}},
			},
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := MergeSearchResponses(tc.parts, tc.topK)
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
// "psms":[] exactly as BuildSearchResponse does, never "psms":null.
func TestMergeRendersEmptyPSMsAsArray(t *testing.T) {
	merged, err := MergeSearchResponses([]SearchResponse{
		{Results: []QueryResult{{Scan: 7, PSMs: []PSMJSON{}}}},
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
