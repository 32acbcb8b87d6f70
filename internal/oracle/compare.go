package oracle

import (
	"bytes"
	"fmt"
	"testing"

	"lbe/internal/api"
	"lbe/internal/engine"
	"lbe/internal/slm"
	"lbe/internal/spectrum"
)

// PSMs is the comparator: it fails t unless got equals want query for
// query and PSM for PSM, in order, with == on every field — Origin only
// when origin is set, since a serial run and a sharded one record
// different provenance. The failure names the first differing query and
// PSM with both values.
func PSMs(t testing.TB, label string, got, want [][]engine.PSM, origin bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d queries, want %d", label, len(got), len(want))
	}
	show := func(ms []engine.PSM, i int) string {
		if i < len(ms) {
			return fmt.Sprintf("%+v", ms[i])
		}
		return "no PSM"
	}
	for q := range want {
		for i := 0; i < len(got[q]) || i < len(want[q]); i++ {
			if i < len(got[q]) && i < len(want[q]) {
				g, w := got[q][i], want[q][i]
				if !origin {
					g.Origin = w.Origin
				}
				if g == w {
					continue
				}
			}
			t.Fatalf("%s: query %d PSM %d: got %s, want %s", label, q, i, show(got[q], i), show(want[q], i))
		}
	}
}

// Ranks fails t unless got and want report the same deterministic stats
// for every rank: Rank, Peptides, Rows, IndexBytes and Work. Wall times
// and the build's transient peak are not compared.
func Ranks(t testing.TB, label string, got, want []engine.RankStats) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ranks, want %d", label, len(got), len(want))
	}
	for r, w := range want {
		g := got[r]
		if g.Rank != w.Rank || g.Peptides != w.Peptides || g.Rows != w.Rows || g.IndexBytes != w.IndexBytes || g.Work != w.Work {
			t.Fatalf("%s: rank %d: got %+v, want %+v", label, r, g, w)
		}
	}
}

// Check holds a path's result to the cell's RunSerial reference: every
// PSM but its Origin, and the work its ranks did in sum — every field of
// slm.Work, which partitioning moves between ranks but never changes.
func (c Cell) Check(t testing.TB, label string, got *engine.Result) {
	t.Helper()
	ref := c.Serial(t)
	PSMs(t, label+" vs RunSerial", got.PSMs, ref.PSMs, false)
	var g, w slm.Work
	for _, s := range got.Stats {
		g.Add(s.Work)
	}
	for _, s := range ref.Stats {
		w.Add(s.Work)
	}
	if g != w {
		t.Fatalf("%s vs RunSerial: work %+v, want %+v", label, g, w)
	}
}

// Same holds a result over a P-shard partition — a store, a rank
// cluster — to the P-shard session's: every PSM with its Origin, every
// rank's stats, the mapping footprint and the group count.
func Same(t testing.TB, label string, got, want *engine.Result) {
	t.Helper()
	PSMs(t, label, got.PSMs, want.PSMs, true)
	Ranks(t, label, got.Stats, want.Stats)
	if got.MappingBytes != want.MappingBytes || got.Groups != want.Groups {
		t.Fatalf("%s: mapping bytes %d, groups %d; want %d, %d", label, got.MappingBytes, got.Groups, want.MappingBytes, want.Groups)
	}
}

// Wire fails t unless body is byte for byte what a replica renders for
// psms answering qs: api.AppendSearchResponse of api.BuildSearchResponse.
func Wire(t testing.TB, label string, body []byte, qs []spectrum.Experimental, psms [][]engine.PSM, peptides []string) {
	t.Helper()
	want := api.AppendSearchResponse(nil, api.BuildSearchResponse(qs, psms, peptides))
	if !bytes.Equal(body, want) {
		t.Fatalf("%s: reply for scans %d..%d differs\n got %s\nwant %s", label, qs[0].Scan, qs[len(qs)-1].Scan, body, want)
	}
}
