package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"lbe/internal/api"
	"lbe/internal/core"
	"lbe/internal/engine"
	"lbe/internal/mass"
	"lbe/internal/oracle"
	"lbe/internal/spectrum"
)

// fuzzCorpus is the input's database and queries. Source 0 draws 1–32
// random peptides, as FuzzSearchVsBruteForce does — distinct of them
// repeated in turn, so a small distinct makes exact duplicates — and
// queries them with up to six jittered fragment ladders of their own.
// Source i > 0 is oracle corpus i-1 (mod the corpus count): its first
// 1–32 peptides and every one of its queries.
func fuzzCorpus(t *testing.T, source uint8, seed int64, npep, distinct uint8) *oracle.Corpus {
	n := 1 + int(npep)%32
	if source > 0 {
		all := oracle.Corpora(t)
		c := all[int(source-1)%len(all)]
		return &oracle.Corpus{Name: c.Name, Peptides: c.Peptides[:min(n, len(c.Peptides))], Queries: c.Queries}
	}
	rng := rand.New(rand.NewSource(seed))
	base := make([]string, 1+int(distinct)%n)
	for i := range base {
		var sb strings.Builder
		for range 6 + rng.Intn(11) {
			sb.WriteByte("ACDEFGHIKLMNPQRSTVWY"[rng.Intn(20)])
		}
		base[i] = sb.String()
	}
	c := &oracle.Corpus{Name: "random", Peptides: make([]string, n)}
	for i := range c.Peptides {
		c.Peptides[i] = base[i%len(base)]
	}
	for scan, nq := 1, 1+rng.Intn(6); scan <= nq; scan++ {
		th, err := spectrum.Predict(c.Peptides[rng.Intn(n)])
		if err != nil {
			t.Fatal(err)
		}
		q := spectrum.Experimental{Scan: scan, PrecursorMZ: mass.MZ(th.Precursor, 2), Charge: 2}
		for _, ion := range th.Ions {
			q.Peaks = append(q.Peaks, spectrum.Peak{MZ: ion + (rng.Float64()-0.5)*0.04, Intensity: 10 + 90*rng.Float64()})
		}
		q.SortPeaks()
		c.Queries = append(c.Queries, q)
	}
	return c
}

// FuzzSessionVsSerial holds every way a session answers to RunSerial,
// with the oracle's comparator, on the input's database under the input's
// shard count, policy, Schedule, TopK and tolerance: the session itself,
// the same session saved and opened from its store, and every
// SavePartitioned cut of it into sets ≤ shards, each set opened and
// answered alone, rendered as a holder renders it and merged as the
// router merges it. The merged reply is held to RunSerial on its wire
// fields and, byte for byte, to the session's own rendering.
func FuzzSessionVsSerial(f *testing.F) {
	// source, seed, npep, distinct, shards, policy, threads, batch, workers, topK, tolKind, tolVal
	f.Add(uint8(0), int64(1), uint8(7), uint8(0), uint8(2), uint8(1), uint8(1), uint8(3), uint8(0), uint8(1), uint8(0), uint16(0))    // eight copies of one peptide
	f.Add(uint8(1), int64(2), uint8(31), uint8(0), uint8(4), uint8(0), uint8(3), uint8(0), uint8(1), uint8(3), uint8(1), uint16(500)) // generated, 0.5 Da
	f.Add(uint8(2), int64(3), uint8(31), uint8(0), uint8(4), uint8(3), uint8(2), uint8(5), uint8(0), uint8(1), uint8(0), uint16(0))   // ties, TopK 1
	f.Add(uint8(3), int64(4), uint8(0), uint8(0), uint8(0), uint8(2), uint8(0), uint8(1), uint8(1), uint8(0), uint8(2), uint16(100))  // single-row, 10 ppm
	f.Add(uint8(4), int64(5), uint8(31), uint8(0), uint8(1), uint8(1), uint8(1), uint8(2), uint8(0), uint8(2), uint8(1), uint16(500)) // window-edge, 0.5 Da
	f.Add(uint8(5), int64(6), uint8(31), uint8(0), uint8(4), uint8(0), uint8(3), uint8(7), uint8(1), uint8(2), uint8(0), uint16(0))   // skewed, chunk over five shards
	f.Fuzz(func(t *testing.T, source uint8, seed int64, npep, distinct, shards, policy, threads, batch, workers, topK, tolKind uint8, tolVal uint16) {
		c := fuzzCorpus(t, source, seed, npep, distinct)
		peptides, qs := c.Peptides, c.Queries
		shape := oracle.Shape{
			Tol:  []mass.Tolerance{mass.Open(), mass.Da(float64(tolVal) / 1000), mass.Ppm(float64(tolVal) / 10)}[tolKind%3],
			TopK: []int{0, 1, 3, 10}[topK%4],
		}
		cfg := oracle.Cell{Corpus: c, Shape: shape}.Config()
		cfg.Policy = []core.Policy{core.Chunk, core.Cyclic, core.Random, core.RandomWithinGroups}[policy%4]
		cfg.Seed = seed
		cfg.Schedule = engine.Schedule{ThreadsPerRank: 1 + int(threads%4), BatchSize: int(batch % 8), BuildWorkers: 1 + int(workers%2)}
		p := 1 + int(shards%5)

		ref, err := engine.RunSerial(peptides, qs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		sess, err := engine.NewSession(peptides, engine.SessionConfig{Config: cfg, Shards: p})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		res, err := sess.Search(ctx, qs)
		if err != nil {
			t.Fatal(err)
		}
		oracle.PSMs(t, "session vs RunSerial", res.PSMs, ref.PSMs, false)

		dir := t.TempDir()
		if err := sess.Save(filepath.Join(dir, "store"), peptides); err != nil {
			t.Fatal(err)
		}
		opened, _, err := engine.OpenSession(filepath.Join(dir, "store"))
		if err != nil {
			t.Fatal(err)
		}
		defer opened.Close()
		opened.SetSchedule(cfg.Schedule)
		got, err := opened.Search(ctx, qs)
		if err != nil {
			t.Fatal(err)
		}
		oracle.PSMs(t, "opened store vs RunSerial", got.PSMs, ref.PSMs, false)

		for sets := 1; sets <= p; sets++ {
			cdir := filepath.Join(dir, fmt.Sprint("sets-", sets))
			cm, err := sess.SavePartitioned(cdir, peptides, sets)
			if err != nil {
				t.Fatal(err)
			}
			parts := make([]api.SearchResponse, sets)
			for i, setDir := range cm.SetDirs {
				slice, stored, err := engine.OpenSession(filepath.Join(cdir, setDir))
				if err != nil {
					t.Fatal(err)
				}
				got, err := slice.Search(ctx, qs)
				slice.Close()
				if err != nil {
					t.Fatal(err)
				}
				parts[i] = api.BuildSearchResponse(qs, got.PSMs, stored)
			}
			merged, err := api.MergeSearchResponses(parts, cfg.TopK)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprint("merged sets=", sets)
			wire := make([][]engine.PSM, len(merged.Results))
			for q, r := range merged.Results {
				for _, pj := range r.PSMs {
					wire[q] = append(wire[q], engine.PSM{Peptide: pj.Peptide, Shared: pj.Shared, Score: pj.Score, Precursor: pj.Precursor})
				}
			}
			oracle.PSMs(t, label+" vs RunSerial", wire, ref.PSMs, false)
			oracle.Wire(t, label+" vs the session", api.AppendSearchResponse(nil, merged), qs, res.PSMs, peptides)
		}
	})
}
