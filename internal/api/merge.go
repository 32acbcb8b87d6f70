package api

import (
	"fmt"
	"slices"

	"lbe/internal/engine"
)

// Scatter/gather merge: a scatter router fans one /search body to one
// holder per shard-set and gathers one SearchResponse per set. Because a
// peptide lives in exactly one shard of exactly one set, the per-set
// responses are disjoint candidate lists, each already in the engine's
// one PSM order and cut to TopK; merging them (engine.MergeSorted) and
// stopping at TopK reproduces — byte for byte — the response a single
// whole-store session would have rendered:
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
// per-set PSM lists are merged by engine.ComparePSM and cut to topK
// (topK <= 0 keeps everything). Every part must carry the same number of
// results with the same scans in the same order, and every PSM list must
// be in ComparePSM order — anything else means the sets answered
// different requests or a holder misbehaved, and the merge refuses
// rather than guess.
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
	size := 0
	for q := 0; q < n; q++ {
		scan, total := parts[0].Results[q].Scan, 0
		for i, p := range parts {
			r := p.Results[q]
			if r.Scan != scan {
				return SearchResponse{}, fmt.Errorf("api: merge: result %d scan %d in response %d, response 0 says %d",
					q, r.Scan, i, scan)
			}
			if !slices.IsSortedFunc(r.PSMs, comparePSMJSON) {
				return SearchResponse{}, fmt.Errorf("api: merge: result %d of response %d is not in engine.ComparePSM order", q, i)
			}
			total += len(r.PSMs)
		}
		if topK > 0 {
			total = min(total, topK)
		}
		size += total
	}
	// Every merged list is cut from one backing array, non-nil even when
	// empty, so the merged body renders "psms":[] exactly as
	// BuildSearchResponse does.
	out := SearchResponse{Results: make([]QueryResult, n)}
	psms := make([]PSMJSON, 0, size)
	lists := make([][]PSMJSON, len(parts))
	for q := range out.Results {
		for i, p := range parts {
			lists[i] = p.Results[q].PSMs
		}
		start := len(psms)
		psms = engine.MergeSorted(psms, lists, topK, comparePSMJSON)
		out.Results[q] = QueryResult{Scan: parts[0].Results[q].Scan, PSMs: psms[start:len(psms):len(psms)]}
	}
	return out, nil
}

// comparePSMJSON is engine.ComparePSM read through the rendered fields.
func comparePSMJSON(a, b PSMJSON) int {
	return engine.ComparePSM(
		engine.PSM{Peptide: a.Peptide, Shared: a.Shared, Score: a.Score, Precursor: a.Precursor},
		engine.PSM{Peptide: b.Peptide, Shared: b.Shared, Score: b.Score, Precursor: b.Precursor})
}
