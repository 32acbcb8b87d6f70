package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// environment records where a result set was measured.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
}

// resultSet is a file of runs with the environment they ran in: what -all
// and -aa write and -compare reads.
type resultSet struct {
	Env  environment `json:"env"`
	Runs []runResult `json:"runs"`
}

func readResultSet(path string) (resultSet, error) {
	var rs resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return rs, err
	}
	if err := json.Unmarshal(data, &rs); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

func writeResultSet(path string, rs resultSet) error {
	doc, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(doc, '\n'), 0o644)
}

// untraced returns the values metric took over the set's untraced runs of
// workload.
func (rs resultSet) untraced(workload, metric string) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if r.Workload == workload && !r.Traced {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// gate is one end-to-end metric's entry in BENCHMARK.json: which way is
// better and the share of the old median by which it may worsen.
type gate struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readGates loads the end-to-end gates from BENCHMARK.json.
func readGates(path string) ([]gate, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []gate `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // the runs spread wider than the bound, so the bound cannot be read
)

// judge compares the new median with the old under g. worse is the share
// of the old median by which the new one is worse (negative when better).
func judge(g gate, old, new []float64) (worse, spread float64, verdict string) {
	mo, mn := median(old), median(new)
	if g.Better == "higher" {
		worse = ratio(mo-mn, mo)
	} else {
		worse = ratio(mn-mo, mo)
	}
	spread = max(quartileSpread(old), quartileSpread(new))
	switch {
	case spread > g.Bound:
		return worse, spread, verdictUnresolved
	case worse > g.Bound:
		return worse, spread, verdictRegressed
	}
	return worse, spread, verdictOK
}

// compareSets prints one row per (workload, end-to-end metric) and returns
// how many regressed.
func compareSets(out io.Writer, gates []gate, old, new resultSet) int {
	regressed := 0
	fmt.Fprintf(out, "%-13s %-20s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "old median", "new median", "new/old", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, g := range gates {
			o, n := old.untraced(w.Name, g.Name), new.untraced(w.Name, g.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			_, spread, verdict := judge(g, o, n)
			if verdict == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(out, "%-13s %-20s %14.6g %14.6g %8.4f %6.2f%% %6.2f%%  %s\n",
				w.Name, g.Name, median(o), median(n), ratio(median(n), median(o)), 100*spread, 100*g.Bound, verdict)
		}
	}
	return regressed
}

// reportSpread prints, for every (workload, end-to-end metric) of an A/A
// result set, the values the sets took and their quartile spread: the
// figure the bounds in BENCHMARK.json are fixed against.
func reportSpread(out io.Writer, gates []gate, rs resultSet) {
	fmt.Fprintf(out, "%-13s %-20s %14s %7s %7s  values\n", "workload", "metric", "median", "spread", "bound")
	for _, w := range workloads {
		for _, g := range gates {
			vals := rs.untraced(w.Name, g.Name)
			if len(vals) == 0 {
				continue
			}
			fmt.Fprintf(out, "%-13s %-20s %14.6g %6.2f%% %6.2f%%  %v\n",
				w.Name, g.Name, median(vals), 100*quartileSpread(vals), 100*g.Bound, vals)
		}
	}
}
