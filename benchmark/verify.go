package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"lbe/internal/api"
	"lbe/internal/engine"
	"lbe/internal/slm"
	"lbe/internal/spectrum"
	"lbe/internal/stats"
)

// psmHash is the 64-bit FNV-1a hash of one spectrum's answer as PSM
// tuples, the identity batch-* replies are compared by.
func psmHash(psms []engine.PSM) uint64 {
	h := fnv.New64a()
	var buf [30]byte
	for _, p := range psms {
		binary.LittleEndian.PutUint32(buf[0:], p.Peptide)
		binary.LittleEndian.PutUint16(buf[4:], p.Shared)
		binary.LittleEndian.PutUint64(buf[6:], math.Float64bits(p.Score))
		binary.LittleEndian.PutUint64(buf[14:], math.Float64bits(p.Precursor))
		binary.LittleEndian.PutUint64(buf[22:], uint64(int64(p.Origin)))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// replyPrefix opens every single-spectrum /search reply; the scan number
// follows it, and what follows the scan is the answer itself.
var replyPrefix = []byte(`{"results":[{"scan":`)

// splitReply checks a reply's framing and splits it into the echoed scan
// and the hash of the bytes after it. Each request carries a unique scan,
// so the tail is the part of the body that depends only on the spectrum.
func splitReply(body []byte) (scan int64, tail uint64, ok bool) {
	if !bytes.HasPrefix(body, replyPrefix) {
		return 0, 0, false
	}
	rest := body[len(replyPrefix):]
	i := 0
	for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
		scan = scan*10 + int64(rest[i]-'0')
		i++
	}
	if i == 0 {
		return 0, 0, false
	}
	h := fnv.New64a()
	h.Write(rest[i:])
	return scan, h.Sum64(), true
}

// renderReply is the body a server sends for one spectrum answered by
// psms: api.BuildSearchResponse through a json.Encoder, as api.WriteJSON
// does.
func renderReply(q spectrum.Experimental, psms []engine.PSM, peptides []string) ([]byte, error) {
	var buf bytes.Buffer
	resp := api.BuildSearchResponse([]spectrum.Experimental{q}, [][]engine.PSM{psms}, peptides)
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// reference is what the freshly built whole-store session answered before
// the window, indexed like the spectrum stream.
type reference struct {
	psm  []uint64 // psmHash per spectrum
	tail []uint64 // reply-tail hash per spectrum (serve workloads only)
	// work is what one pass of the shared pool cost in deterministic work
	// units, summed over shards, and imbalancePct the paper's LI over the
	// same pass: (max − mean)/mean of the per-shard units. Both are counts,
	// so they repeat exactly for a seed.
	work         slm.Work
	imbalancePct float64
	golden       string // digest of the GoldenSample prefix's answers
}

// measurePool records the work done since before as the pool pass's.
func (ref *reference) measurePool(before, after []engine.RankStats) {
	ref.imbalancePct = 100 * stats.LoadImbalance(workDelta(before, after))
	for i := range after {
		w := after[i].Work
		b := before[i].Work
		ref.work.Add(slm.Work{IonHits: w.IonHits - b.IonHits, Pruned: w.Pruned - b.Pruned,
			Candidates: w.Candidates - b.Candidates, Scored: w.Scored - b.Scored})
	}
}

// referencePass answers spectra[:n] on the built session, a direct
// whole-store Session.Search that shares no serving code with the rig
// under test. The shared pool goes first, so the work counts are taken over
// exactly one pass of it (or over the n spectra, when n stops short of it).
func referencePass(ctx context.Context, r *rig, c *corpus, sc scale, n int) (*reference, error) {
	ref := &reference{psm: make([]uint64, n)}
	if r.w.Front != frontSession {
		ref.tail = make([]uint64, n)
	}
	before := r.built.Stats()
	for lo := 0; lo < n; lo += sc.Batch {
		if lo == sc.Pool {
			ref.measurePool(before, r.built.Stats())
		}
		hi := min(lo+sc.Batch, n)
		res, err := r.built.Search(ctx, c.Spectra[lo:hi])
		if err != nil {
			return nil, fmt.Errorf("reference pass: %w", err)
		}
		for i, psms := range res.PSMs {
			ref.psm[lo+i] = psmHash(psms)
			if ref.tail != nil {
				body, err := renderReply(c.Spectra[lo+i], psms, c.Peptides)
				if err != nil {
					return nil, err
				}
				_, tail, ok := splitReply(body)
				if !ok {
					return nil, fmt.Errorf("reference pass: rendered reply is not a single-spectrum response")
				}
				ref.tail[lo+i] = tail
			}
		}
	}
	if n <= sc.Pool {
		ref.measurePool(before, r.built.Stats())
	}
	var buf [8]byte
	h := fnv.New128a()
	for _, v := range ref.psm[:sc.GoldenSample] {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ref.golden = hex.EncodeToString(h.Sum(nil))
	return ref, nil
}

// workDelta is the per-shard deterministic work (ion hits + scored
// candidates, the quantity LBE balances) done between two Stats snapshots.
func workDelta(before, after []engine.RankStats) []float64 {
	b, a := engine.WorkUnits(before), engine.WorkUnits(after)
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// oracleCheck answers n pool spectra with slm.BruteForce — the one search
// that shares no index layout with the kernel — and compares them with the
// built session's. It costs seconds per spectrum at full scale, which is
// why it runs only when golden digests are pinned.
func oracleCheck(ctx context.Context, r *rig, c *corpus, sc scale, n int) error {
	cfg := r.built.Config()
	res, err := r.built.Search(ctx, c.Spectra[:n])
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		q := spectrum.Preprocess(c.Spectra[i], cfg.Params.MaxQueryPeaks)
		ms, err := slm.BruteForce(c.Peptides, cfg.Params, q)
		if err != nil {
			return err
		}
		// BruteForce runs over the global list, so Peptide is already the
		// global index; order and truncate as the engine's merge does.
		sort.Slice(ms, func(a, b int) bool {
			x, y := ms[a], ms[b]
			if x.Score != y.Score {
				return x.Score > y.Score
			}
			if x.Peptide != y.Peptide {
				return x.Peptide < y.Peptide
			}
			if x.Precursor != y.Precursor {
				return x.Precursor < y.Precursor
			}
			return x.Shared > y.Shared
		})
		if cfg.TopK > 0 && len(ms) > cfg.TopK {
			ms = ms[:cfg.TopK]
		}
		got := res.PSMs[i]
		if len(got) != len(ms) {
			return fmt.Errorf("oracle: spectrum %d: session returned %d PSMs, brute force %d", i, len(got), len(ms))
		}
		for k, m := range ms {
			g := got[k]
			if g.Peptide != m.Peptide || g.Shared != m.Shared || g.Score != m.Score || g.Precursor != m.Precursor {
				return fmt.Errorf("oracle: spectrum %d PSM %d: session %+v, brute force %+v", i, k, g, m)
			}
		}
	}
	return nil
}
