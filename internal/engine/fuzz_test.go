package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
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

// answers returns s's answers to qs: its first, and under a bounded
// tolerance a second, asked once the shards' row views, whose build the
// first answer starts, are all built — so the second runs the kernel's
// row scan wherever a window cuts a band.
func answers(t *testing.T, s *engine.Session, qs []spectrum.Experimental, bounded bool) []*engine.Result {
	t.Helper()
	search := func() *engine.Result {
		t.Helper()
		res, err := s.Search(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	need := slices.Contains(s.NeedsRowViews(), true)
	out := []*engine.Result{search()}
	if !bounded {
		return out
	}
	if !s.WaitRowViews() && need {
		t.Fatal("a session whose shards need row views started no build")
	}
	if slices.Contains(s.NeedsRowViews(), true) {
		t.Fatalf("shards still without a row view after the build: %v", s.NeedsRowViews())
	}
	return append(out, search())
}

// FuzzSessionVsSerial holds every way a session answers to RunSerial,
// with the oracle's comparator, on the input's database under the input's
// shard count, policy, Schedule, TopK and tolerance: the session itself,
// the same session saved and opened from its store, and every
// SavePartitioned cut of it into sets ≤ shards, each set opened and
// answered alone, rendered as a holder renders it and merged as the
// router merges it. The merged reply is held to RunSerial on its wire
// fields and, byte for byte, to the session's own rendering. Under a
// bounded tolerance each of them answers twice, the second time with its
// shards' row views built (answers), and both answers are held.
//
// Seven random-corpus inputs in eight (seed%8 != 0) index a small bucket
// universe, as FuzzSearchVsBruteForce's do: a MaxFragmentMZ of 300–555
// over 0.1-wide buckets, or the whole m/z range over buckets 0.4–1.1
// wide. The eighth, and every oracle-corpus input, keep the defaults.
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
		switch {
		case source != 0 || seed%8 == 0:
		case seed&1 != 0:
			cfg.Params.MaxFragmentMZ = float64(300 + seed>>3&0xff)
			cfg.Params.Resolution = 0.1
		default:
			cfg.Params.Resolution = 0.1 * float64(4+seed>>3&7)
		}
		bounded := !shape.Tol.IsOpen()
		cfg.Policy = []core.Policy{core.Chunk, core.Cyclic, core.Random, core.RandomWithinGroups}[policy%4]
		cfg.Seed = seed
		cfg.Schedule = engine.Schedule{ThreadsPerRank: 1 + int(threads%4), BatchSize: int(batch % 8), BuildWorkers: 1 + int(workers%2)}
		p := 1 + int(shards%5)

		ref, err := engine.RunSerial(peptides, qs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := engine.NewSession(peptides, engine.SessionConfig{Config: cfg, Shards: p})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		sessAnswers := answers(t, sess, qs, bounded)
		res := sessAnswers[0]
		for i, r := range sessAnswers {
			oracle.PSMs(t, fmt.Sprint("session answer ", i+1, " vs RunSerial"), r.PSMs, ref.PSMs, false)
		}

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
		for i, r := range answers(t, opened, qs, bounded) {
			oracle.PSMs(t, fmt.Sprint("opened store answer ", i+1, " vs RunSerial"), r.PSMs, ref.PSMs, false)
		}

		for sets := 1; sets <= p; sets++ {
			cdir := filepath.Join(dir, fmt.Sprint("sets-", sets))
			cm, err := sess.SavePartitioned(cdir, peptides, sets)
			if err != nil {
				t.Fatal(err)
			}
			// parts[pass][set] is a set's answer on its first or second pass.
			parts := make([][]api.SearchResponse, 2)
			for _, setDir := range cm.SetDirs {
				slice, stored, err := engine.OpenSession(filepath.Join(cdir, setDir))
				if err != nil {
					t.Fatal(err)
				}
				for pass, got := range answers(t, slice, qs, bounded) {
					parts[pass] = append(parts[pass], api.BuildSearchResponse(qs, got.PSMs, stored))
				}
				slice.Close()
			}
			for pass, setParts := range parts {
				if len(setParts) == 0 {
					continue
				}
				merged, err := api.MergeSearchResponses(setParts, cfg.TopK)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprint("merged sets=", sets, ", answer ", pass+1)
				wire := make([][]engine.PSM, len(merged.Results))
				for q, r := range merged.Results {
					for _, pj := range r.PSMs {
						wire[q] = append(wire[q], engine.PSM{Peptide: pj.Peptide, Shared: pj.Shared, Score: pj.Score, Precursor: pj.Precursor})
					}
				}
				oracle.PSMs(t, label+" vs RunSerial", wire, ref.PSMs, false)
				oracle.Wire(t, label+" vs the session", api.AppendSearchResponse(nil, merged), qs, res.PSMs, peptides)
			}
		}
	})
}
