package bench

import (
	"fmt"

	"lbe/internal/core"
	"lbe/internal/engine"
	"lbe/internal/stats"
)

// AblationGrouping sweeps the Algorithm 1 design choices the paper calls
// out in §III-C — grouping criterion, d/d', group-size cap, and a
// no-grouping baseline — and reports the resulting load imbalance for the
// chunk and cyclic policies. It demonstrates which part of LBE does the
// balancing work.
func AblationGrouping(o Options) (Figure, error) {
	fig := Figure{
		ID:     "ablation-grouping",
		Title:  fmt.Sprintf("Grouping ablation: LI%% by configuration, %d partitions", o.Ranks),
		XLabel: "config #",
		YLabel: "LI %",
	}
	c, err := o.corpusAt(paperSizesM[1])
	if err != nil {
		return fig, err
	}

	type variant struct {
		name string
		raw  bool
		gcfg core.GroupConfig
	}
	variants := []variant{
		{name: "no grouping (raw order)", raw: true},
		{name: "criterion1 d=2 gsize=20", gcfg: core.GroupConfig{Criterion: core.AbsoluteEdit, D: 2, GroupSize: 20}},
		{name: "criterion2 d'=0.86 gsize=20 (paper)", gcfg: core.DefaultGroupConfig()},
		{name: "criterion2 d'=0.86 gsize=5", gcfg: core.GroupConfig{Criterion: core.NormalizedEdit, DPrime: 0.86, GroupSize: 5}},
		{name: "criterion2 d'=0.86 gsize=100", gcfg: core.GroupConfig{Criterion: core.NormalizedEdit, DPrime: 0.86, GroupSize: 100}},
		{name: "criterion2 d'=0.30 gsize=20", gcfg: core.GroupConfig{Criterion: core.NormalizedEdit, DPrime: 0.30, GroupSize: 20}},
	}
	policies := []core.Policy{core.Chunk, core.Cyclic, core.RandomWithinGroups}
	series := make([]Series, len(policies))
	for i, p := range policies {
		series[i] = Series{Label: p.String()}
	}
	for i, v := range variants {
		for pi, policy := range policies {
			cfg := engineConfig()
			cfg.Policy = policy
			cfg.RawOrder = v.raw
			if !v.raw {
				cfg.Group = v.gcfg
			}
			res, err := o.partitioned(o.Ranks, c.Peptides, c.Queries, cfg)
			if err != nil {
				return fig, err
			}
			li := 100 * stats.LoadImbalance(engine.WorkUnits(res.Stats))
			series[pi].X = append(series[pi].X, float64(i))
			series[pi].Y = append(series[pi].Y, li)
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf("config %d: %s", i, v.name))
	}
	fig.Notes = append(fig.Notes,
		"chunk/cyclic depend on the clustered ORDER only; group boundaries matter for the within-group policy")
	fig.Series = series
	return fig, nil
}

// AblationHeterogeneous evaluates the §VIII load-predicting model on a
// simulated heterogeneous cluster: the first machine is 4x and the second
// 2x the speed of the rest. Modeled per-rank time is work/speed; the
// weighted partitioner should restore balance that uniform partitioning
// cannot provide.
func AblationHeterogeneous(o Options) (Figure, error) {
	fig := Figure{
		ID:     "ablation-heterogeneous",
		Title:  fmt.Sprintf("Heterogeneous cluster (speeds 4,2,1,...): modeled LI%%, %d partitions", o.Ranks),
		XLabel: "index size (rows)",
		YLabel: "LI %",
	}
	speeds := make([]float64, o.Ranks)
	for i := range speeds {
		speeds[i] = 1
	}
	speeds[0] = 4
	if o.Ranks > 1 {
		speeds[1] = 2
	}

	series := []Series{{Label: "uniform partition"}, {Label: "speed-weighted partition"}}
	for _, sizeM := range paperSizesM[:2] { // two notches keep it quick
		c, err := o.corpusAt(sizeM)
		if err != nil {
			return fig, err
		}
		for i, weights := range [][]float64{nil, speeds} {
			cfg := engineConfig()
			cfg.Policy = core.Cyclic
			cfg.Weights = weights
			res, err := o.partitioned(o.Ranks, c.Peptides, c.Queries, cfg)
			if err != nil {
				return fig, err
			}
			times := engine.WorkUnits(res.Stats)
			for r := range times {
				times[r] /= speeds[r]
			}
			series[i].X = append(series[i].X, float64(c.Rows))
			series[i].Y = append(series[i].Y, 100*stats.LoadImbalance(times))
		}
	}
	fig.Series = series
	fig.Notes = append(fig.Notes,
		"future-work feature (§VIII): peptide shares proportional to machine speed")
	return fig, nil
}

// Figures is the one ordered table of experiments: lbe-bench's -fig names,
// in the order All runs them (paper order, then the ablations). Serving,
// caching, scatter/gather, cold start and the kernel's two scans have no
// figure here: they are the repository benchmark's questions (benchmark/),
// asked there of a 100× larger store with every reply verified.
var Figures = []struct {
	ID  string
	Run func(Options) (Figure, error)
}{
	{"setup", SetupStats},
	{"5", Fig5},
	{"6", Fig6},
	{"7", Fig7},
	{"8", Fig8},
	{"11", Fig11},
	{"grouping", AblationGrouping},
	{"hetero", AblationHeterogeneous},
	{"filtration", FiltrationComparison},
	// Kept beside the paper's figures because no benchmark/ workload
	// measures it yet (ROADMAP, Benchmark v2 (b)): work stealing on a
	// deliberately length-skewed proteome — the benchmark's corpus has no
	// skew to steal across.
	{"steal", Steal},
}

// All runs every experiment in Figures order, each shared sweep once.
func All(o Options) ([]Figure, error) {
	o.shared = &sweeps{}
	var figs []Figure
	for _, r := range Figures {
		f, err := r.Run(o)
		if err != nil {
			return figs, fmt.Errorf("bench: %s: %w", r.ID, err)
		}
		figs = append(figs, f)
	}
	return figs, nil
}
