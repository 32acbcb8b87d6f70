package bench

import (
	"context"
	"fmt"

	"lbe/internal/core"
	"lbe/internal/engine"
	"lbe/internal/mods"
	"lbe/internal/spectrum"
	"lbe/internal/stats"
)

// Options scales the experiments. The paper's index sizes (18M, 30M, 41M,
// 49.45M spectra) are multiplied by Scale; on a laptop-class machine the
// default 1/1000 keeps every figure under a few minutes total.
type Options struct {
	Scale     float64 // fraction of the paper's index sizes
	Ranks     int     // partitions for the load-imbalance figures (paper: 16)
	RankSweep []int   // CPU counts for the scalability figures (paper: 2..16)
	Queries   int     // query spectra per run
	Seed      uint64
	// Ctx cancels long figure runs mid-flight (lbe-bench threads a
	// signal-cancelled root); nil falls back to an uncancellable run.
	Ctx context.Context

	shared *sweeps // set by All; nil runs every sweep afresh
}

// sweeps keeps the sweeps two figures each read — policySweep for Figs. 6
// and 11, scalability for Figs. 7 and 8 — so All runs each one once.
type sweeps struct {
	policyRows []float64
	policyWork [][][]float64
	slowest    [][]float64
}

// ctx returns the run's cancellation context.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	//lbe:ignore ctxflow nil-Ctx fallback keeps zero-value Options usable in tests; lbe-bench threads a real root
	return context.Background()
}

// DefaultOptions returns the laptop-scale defaults.
func DefaultOptions() Options {
	return Options{
		Scale:     1.0 / 1000,
		Ranks:     16,
		RankSweep: []int{2, 4, 8, 16},
		Queries:   800,
		Seed:      1,
	}
}

// paperSizesM are the index sizes of the paper's evaluation, in million
// spectra.
var paperSizesM = []float64{18, 30, 41, 49.45}

// sizeRows converts a paper size notch to a row target under o.Scale.
func (o Options) sizeRows(sizeM float64) int {
	rows := int(sizeM * 1e6 * o.Scale)
	if rows < 200 {
		rows = 200
	}
	return rows
}

// engineConfig is the shared run configuration: paper search settings with
// a reduced mod fan-out so laptop-scale corpora have realistic
// variant-per-peptide ratios.
func engineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Params.Mods = mods.Config{Mods: mods.PaperSet(), MaxPerPep: 2}
	cfg.TopK = 10
	return cfg
}

func modConfig() mods.Config { return engineConfig().Params.Mods }

// corpusAt builds the corpus for a size notch.
func (o Options) corpusAt(sizeM float64) (Corpus, error) {
	return SizedCorpus(o.sizeRows(sizeM), o.Queries, o.Seed, modConfig())
}

// partitioned searches queries over a p-way LBE partition of the peptides
// and returns the per-partition accounting the figures are computed from:
// the production engine's own counters, one p-shard Session.
func (o Options) partitioned(p int, peptides []string, queries []spectrum.Experimental, cfg engine.Config) (*engine.Result, error) {
	sess, err := engine.NewSession(peptides, engine.SessionConfig{Config: cfg, Shards: p})
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return sess.Search(o.ctx(), queries)
}

// Fig5 reproduces the memory-footprint comparison: resident index bytes of
// the shared-memory SLM index versus the distributed index (sum of partial
// indexes plus the master mapping table) for growing index size.
func Fig5(o Options) (Figure, error) {
	fig := Figure{
		ID:     "fig5",
		Title:  "Memory footprint: shared-memory vs distributed SLM index",
		XLabel: "index size (rows)",
		YLabel: "MB",
	}
	shared := Series{Label: "SLM-Transform (shared)"}
	dist := Series{Label: fmt.Sprintf("Distributed SLM (%d ranks)", o.Ranks)}
	var notes []float64
	for _, sizeM := range paperSizesM {
		c, err := o.corpusAt(sizeM)
		if err != nil {
			return fig, err
		}
		cfg := engineConfig()
		serial, err := engine.RunSerial(c.Peptides, nil, cfg)
		if err != nil {
			return fig, err
		}
		res, err := o.partitioned(o.Ranks, c.Peptides, nil, cfg)
		if err != nil {
			return fig, err
		}
		sharedBytes := serial.Stats[0].IndexBytes
		distBytes := res.MappingBytes
		for _, s := range res.Stats {
			distBytes += s.IndexBytes
		}
		rows := float64(serial.Stats[0].Rows)
		shared.X = append(shared.X, rows)
		shared.Y = append(shared.Y, float64(sharedBytes)/(1<<20))
		dist.X = append(dist.X, rows)
		dist.Y = append(dist.Y, float64(distBytes)/(1<<20))
		notes = append(notes, 100*(float64(distBytes)/float64(sharedBytes)-1))
	}
	fig.Series = []Series{shared, dist}
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"distributed overhead per notch: %s %% (paper: ~6.4%% average at 10.5M-spectra partitions; "+
			"overhead varies inversely with partition size, so scaled-down runs sit higher — "+
			"the reproduced property is the shrinking trend)", trimFloats(notes)))
	return fig, nil
}

// run is one distributed search of a sweep: a shard count and the
// configuration to partition and search with.
type run struct {
	shards int
	cfg    engine.Config
}

// workSweep performs every run at every paper size notch and returns each
// notch's index rows and each run's per-rank work units, indexed
// [notch][run]: the deterministic accounting Figs. 6-8 and 11 are
// computed from.
func (o Options) workSweep(runs []run) (rows []float64, work [][][]float64, err error) {
	for _, sizeM := range paperSizesM {
		c, err := o.corpusAt(sizeM)
		if err != nil {
			return nil, nil, err
		}
		notch := make([][]float64, len(runs))
		for i, r := range runs {
			res, err := o.partitioned(r.shards, c.Peptides, c.Queries, r.cfg)
			if err != nil {
				return nil, nil, err
			}
			notch[i] = engine.WorkUnits(res.Stats)
		}
		rows = append(rows, float64(c.Rows))
		work = append(work, notch)
	}
	return rows, work, nil
}

// paperPolicies are the three distribution policies Figs. 6 and 11 compare.
var paperPolicies = []core.Policy{core.Chunk, core.Cyclic, core.Random}

// policySweep runs each paper policy o.Ranks-way at every notch.
func (o Options) policySweep() (rows []float64, work [][][]float64, err error) {
	if o.shared != nil && o.shared.policyWork != nil {
		return o.shared.policyRows, o.shared.policyWork, nil
	}
	runs := make([]run, len(paperPolicies))
	for i, p := range paperPolicies {
		runs[i] = run{shards: o.Ranks, cfg: engineConfig()}
		runs[i].cfg.Policy = p
		runs[i].cfg.Seed = int64(o.Seed)
	}
	rows, work, err = o.workSweep(runs)
	if err == nil && o.shared != nil {
		o.shared.policyRows, o.shared.policyWork = rows, work
	}
	return rows, work, err
}

// Fig6 reproduces the normalized load-imbalance comparison across the
// three distribution policies for growing index size at o.Ranks
// partitions. LI is computed from deterministic per-rank work units.
func Fig6(o Options) (Figure, error) {
	fig := Figure{
		ID:     "fig6",
		Title:  fmt.Sprintf("Normalized load imbalance, %d partitions", o.Ranks),
		XLabel: "index size (rows)",
		YLabel: "LI %",
	}
	rows, work, err := o.policySweep()
	if err != nil {
		return fig, err
	}
	for i, p := range paperPolicies {
		s := Series{Label: p.String(), X: rows}
		for _, notch := range work {
			s.Y = append(s.Y, 100*stats.LoadImbalance(notch[i]))
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes,
		"paper: chunk ~120%, cyclic and random <= 20%; shape criterion is chunk >> cyclic/random")
	return fig, nil
}

// scalability is the sweep behind Figs. 7 and 8: at every notch, one
// cyclic-policy run per o.RankSweep entry, reduced to its slowest rank's
// work in million units — the distributed query phase ends when that
// rank does — indexed [notch][rank count].
func (o Options) scalability() ([][]float64, error) {
	if o.shared != nil && o.shared.slowest != nil {
		return o.shared.slowest, nil
	}
	runs := make([]run, len(o.RankSweep))
	for i, p := range o.RankSweep {
		runs[i] = run{shards: p, cfg: engineConfig()}
	}
	_, work, err := o.workSweep(runs)
	if err != nil {
		return nil, err
	}
	slowest := make([][]float64, len(work))
	for n, notch := range work {
		for _, w := range notch {
			slowest[n] = append(slowest[n], stats.Max(w)/1e6)
		}
	}
	if o.shared != nil {
		o.shared.slowest = slowest
	}
	return slowest, nil
}

// Fig7 reproduces query time vs number of ranks for each index size
// (cyclic policy), as the slowest rank's work: the rate that would turn
// it into seconds is one constant per machine, so the curves' shape is
// the paper's.
func Fig7(o Options) (Figure, error) {
	fig := Figure{ID: "fig7", Title: "Query work vs CPUs (cyclic policy)",
		XLabel: "ranks (CPUs)", YLabel: "slowest rank's work (M units)"}
	slowest, err := o.scalability()
	if err != nil {
		return fig, err
	}
	for n, work := range slowest {
		fig.Series = append(fig.Series, Series{Label: sizeLabel(n), X: o.sweepX(), Y: work})
	}
	return fig, nil
}

// Fig8 reproduces the query-time speedup (near-linear in the paper). The
// base case follows the paper: the smallest rank count is assumed to run
// at ideal efficiency.
func Fig8(o Options) (Figure, error) {
	fig := Figure{ID: "fig8", Title: "Query speedup vs CPUs (cyclic policy)",
		XLabel: "ranks (CPUs)", YLabel: "speedup"}
	slowest, err := o.scalability()
	if err != nil {
		return fig, err
	}
	fig.Series = append(fig.Series, Series{Label: "ideal", X: o.sweepX(), Y: o.sweepX()})
	for n, work := range slowest {
		s := Series{Label: sizeLabel(n), X: o.sweepX()}
		base := work[0] * float64(o.RankSweep[0])
		for _, w := range work {
			sp := 0.0
			if w > 0 {
				sp = base / w
			}
			s.Y = append(s.Y, sp)
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes, "paper: near-linear")
	return fig, nil
}

// sweepX returns o.RankSweep as a figure axis.
func (o Options) sweepX() []float64 {
	xs := make([]float64, len(o.RankSweep))
	for i, p := range o.RankSweep {
		xs[i] = float64(p)
	}
	return xs
}

// sizeLabel names the n-th paper size notch.
func sizeLabel(n int) string { return fmt.Sprintf("%gM-scaled", paperSizesM[n]) }

// Fig11 reproduces the CPU-time speedup of LBE partitioning over the
// conventional chunk baseline: the ratio of wasted CPU time
// Twst = N*∆Tmax (Eq. 1 and §VI) of chunk to each policy.
func Fig11(o Options) (Figure, error) {
	fig := Figure{
		ID:     "fig11",
		Title:  fmt.Sprintf("Speedup by load balance over chunk, %d partitions", o.Ranks),
		XLabel: "index size (rows)",
		YLabel: "speedup",
	}
	rows, work, err := o.policySweep()
	if err != nil {
		return fig, err
	}
	avg := make([]float64, len(paperPolicies))
	for i, p := range paperPolicies {
		s := Series{Label: p.String(), X: rows}
		for _, notch := range work {
			sp := 0.0
			if wasted := stats.WastedCPUTime(notch[i]); wasted > 0 {
				sp = stats.WastedCPUTime(notch[0]) / wasted
			}
			s.Y = append(s.Y, sp)
			avg[i] += sp / float64(len(paperSizesM))
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"average speedup over chunk: cyclic %.1fx, random %.1fx (paper: ~8.6x and ~7.5x)",
		avg[1], avg[2]))
	return fig, nil
}

// SetupStats reproduces the in-text dataset/search statistics of §V-A
// (total cPSMs, cPSMs per query, etc.) on the largest scaled notch.
func SetupStats(o Options) (Figure, error) {
	fig := Figure{
		ID:     "setup",
		Title:  "Search statistics (paper §V-A)",
		XLabel: "metric",
		YLabel: "value",
	}
	c, err := o.corpusAt(paperSizesM[len(paperSizesM)-1])
	if err != nil {
		return fig, err
	}
	res, err := o.partitioned(o.Ranks, c.Peptides, c.Queries, engineConfig())
	if err != nil {
		return fig, err
	}

	hit := 0
	for q := range c.Queries {
		for _, p := range res.PSMs[q] {
			if int(p.Peptide) == c.Truth[q].Peptide {
				hit++
				break
			}
		}
	}
	cpsms := res.CandidatePSMs()
	s := Series{Label: "measured"}
	add := func(x string, v float64) {
		s.X = append(s.X, float64(len(s.X)))
		s.Y = append(s.Y, v)
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s = %s", x, trimFloat(v)))
	}
	add("peptides", float64(len(c.Peptides)))
	add("index rows (spectra)", float64(c.Rows))
	add("LBE groups", float64(res.Groups))
	add("query spectra", float64(len(c.Queries)))
	add("total cPSMs", float64(cpsms))
	add("cPSMs per query", float64(cpsms)/float64(len(c.Queries)))
	add("top-10 identification rate %", 100*float64(hit)/float64(len(c.Queries)))
	fig.Series = []Series{s}
	return fig, nil
}

func trimFloats(vs []float64) string {
	out := ""
	for i, v := range vs {
		if i > 0 {
			out += ", "
		}
		out += trimFloat(v)
	}
	return out
}
