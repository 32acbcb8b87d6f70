package api

import (
	"fmt"
	"slices"

	"lbe/internal/engine"
)

// Scatter/gather merge: a scatter router fans one /search body to one
// holder per shard-set and gathers one SearchResponse per set. Because a
// peptide lives in exactly one shard of exactly one set, the per-set
// responses are disjoint candidate lists; re-sorting their union by the
// engine's one PSM order and truncating to the session's TopK reproduces
// — byte for byte — the response a single whole-store session would have
// rendered:
//
//   - the per-set top-K union contains the global top-K (a globally
//     top-K PSM is top-K within its own set a fortiori);
//   - the order is engine.ComparePSM read through the four rendered
//     fields it compares, and PSMs tying on all four render identical
//     rows (Sequence and Shard are functions of Peptide), so any tie
//     order yields the same bytes;
//   - float64 JSON round-trips exactly (shortest-representation
//     marshaling), so decode → merge → re-encode preserves every score.

// MergeSearchResponses gathers one per-shard-set /search response into
// the response a whole-store session would produce: per query, the
// per-set PSM lists are concatenated, re-sorted by engine.ComparePSM,
// and truncated to topK (topK <= 0 keeps everything). Every part must
// carry the same number of results with the same scans in the same order
// — anything else means the sets answered different requests, and the
// merge refuses rather than guess.
func MergeSearchResponses(parts []SearchResponse, topK int) (SearchResponse, error) {
	if len(parts) == 0 {
		return SearchResponse{}, fmt.Errorf("api: merge: no responses")
	}
	n := len(parts[0].Results)
	for i, p := range parts[1:] {
		if len(p.Results) != n {
			return SearchResponse{}, fmt.Errorf("api: merge: response %d has %d results, response 0 has %d",
				i+1, len(p.Results), n)
		}
	}
	out := SearchResponse{Results: make([]QueryResult, n)}
	for q := 0; q < n; q++ {
		scan := parts[0].Results[q].Scan
		total := 0
		for i, p := range parts {
			if p.Results[q].Scan != scan {
				return SearchResponse{}, fmt.Errorf("api: merge: result %d scan %d in response %d, response 0 says %d",
					q, p.Results[q].Scan, i, scan)
			}
			total += len(p.Results[q].PSMs)
		}
		// Non-nil even when empty, so the merged body renders "psms":[]
		// exactly as BuildSearchResponse does.
		merged := make([]PSMJSON, 0, total)
		for _, p := range parts {
			merged = append(merged, p.Results[q].PSMs...)
		}
		slices.SortFunc(merged, func(a, b PSMJSON) int {
			return engine.ComparePSM(
				engine.PSM{Peptide: a.Peptide, Shared: a.Shared, Score: a.Score, Precursor: a.Precursor},
				engine.PSM{Peptide: b.Peptide, Shared: b.Shared, Score: b.Score, Precursor: b.Precursor})
		})
		if topK > 0 && len(merged) > topK {
			merged = merged[:topK]
		}
		out.Results[q] = QueryResult{Scan: scan, PSMs: merged}
	}
	return out, nil
}
