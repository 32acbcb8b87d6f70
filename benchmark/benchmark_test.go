package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"lbe/internal/gen"
	"lbe/internal/server"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		sample []float64
		p      float64
		want   float64
	}{
		{hundred, 50, 50},
		{hundred, 95, 95},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{hundred, 0.5, 1},
		{hundred[:10], 95, 10}, // rank ceil(9.5) = 10
		{hundred[:10], 50, 5},
		{hundred[:1], 95, 1},
		{nil, 95, 0},
	} {
		if got := percentile(tc.sample, tc.p); got != tc.want {
			t.Errorf("percentile(n=%d, p%g) = %g, want %g", len(tc.sample), tc.p, got, tc.want)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // rank 9990 leaves exactly 10
		{9999, 99},
		{1000, 99},
		{999, 95},
		{200, 95}, // rank 190 leaves exactly 10
		{199, 90}, // p95's rank 190 leaves 9
		{100, 90},
		{99, 75},
		{40, 75},
		{39, 50},
		{0, 50},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
	}
}

func TestQuartileSpreadMatchesPythonExclusiveQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	xs := []float64{7, 1, 9, 3, 5, 10, 2, 8, 4, 6}
	if got := quartileSpread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("ten values: spread %g, want 1", got)
	}
	// Two values: the quartiles are the values themselves.
	if got := quartileSpread([]float64{90, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("two values: spread %g, want 0.2", got)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("one value: spread %g, want 0", got)
	}
}

func TestSelfTimeClipsAndMergesChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"nested", []span{{Start: 10, End: 30}}, 80},
		{"overlapping children count once", []span{{Start: 10, End: 30}, {Start: 20, End: 50}}, 60},
		{"contained child adds nothing", []span{{Start: 10, End: 50}, {Start: 20, End: 30}}, 60},
		{"child past the end is clipped", []span{{Start: 90, End: 120}}, 90},
		{"child before the start is clipped", []span{{Start: -20, End: 10}}, 90},
		{"child outside is ignored", []span{{Start: 110, End: 150}}, 100},
		{"unsorted", []span{{Start: 60, End: 70}, {Start: 10, End: 20}}, 80},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSummarizeAttributesSelfTimePerRequest(t *testing.T) {
	const msNs = 1e6
	spans := []span{
		{Name: spanClient, Start: 0, End: 100 * msNs, Req: 1},
		{Name: spanRouter, Start: 10 * msNs, End: 90 * msNs, Parent: spanClient, Req: 1},
		{Name: spanServer, Start: 20 * msNs, End: 50 * msNs, Parent: spanRouter, Req: 1},
		{Name: spanServer, Start: 30 * msNs, End: 80 * msNs, Parent: spanRouter, Req: 1},
		// A second request whose root fell in an untraced slice.
		{Name: spanServer, Start: 200 * msNs, End: 204 * msNs, Parent: spanClient, Req: 2},
		{Name: spanEngine, Start: 0, End: 7 * msNs, Req: 3},
	}
	got := summarize(spans)
	want := traceSummary{
		clientTransport: []float64{20},
		routerHandler:   []float64{80},
		routerSelf:      []float64{20}, // 80 minus the union [20,80]
		holderSkew:      []float64{20}, // 50 ms holder minus 30 ms holder
		serverHandler:   []float64{30, 50, 4},
		serverSelf:      []float64{30, 50, 4},
		engineSearch:    []float64{7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("summarize:\n got %+v\nwant %+v", got, want)
	}
}

func TestZipfSamplerAndPoissonScheduleAreSeeded(t *testing.T) {
	draw := func(seed uint64) []int {
		z := gen.NewZipf(gen.NewRNG(seed), 2048, zipfExponent)
		out := make([]int, 4096)
		for i := range out {
			out[i] = z.Next()
		}
		return out
	}
	if !reflect.DeepEqual(draw(7), draw(7)) {
		t.Error("zipf: the same seed drew different sequences")
	}
	if reflect.DeepEqual(draw(7), draw(8)) {
		t.Error("zipf: different seeds drew the same sequence")
	}
	head := 0
	for _, r := range draw(7) {
		if r < 205 { // the hottest tenth of the pool
			head++
		}
	}
	if head < 4096/2 {
		t.Errorf("zipf s=%g: hottest tenth drew %d of 4096, want most", zipfExponent, head)
	}

	const rate, dur = 300.0, int64(2e9)
	a := poissonSchedule(gen.NewRNG(7), rate, dur)
	if !reflect.DeepEqual(a, poissonSchedule(gen.NewRNG(7), rate, dur)) {
		t.Error("poisson: the same seed made different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(gen.NewRNG(8), rate, dur)) {
		t.Error("poisson: different seeds made the same schedule")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) || a[len(a)-1] >= dur {
		t.Error("poisson: offsets must ascend and stay inside the step")
	}
	// 600 expected arrivals; five standard deviations is ±122.
	if n := len(a); n < 478 || n > 722 {
		t.Errorf("poisson: %d arrivals at %g/s over 2 s", n, rate)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lower := gate{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := gate{Name: "qps", Better: "higher", Bound: 0.05}
	for _, tc := range []struct {
		name     string
		g        gate
		old, new []float64
		want     string
	}{
		{"unchanged", lower, []float64{10, 10, 10}, []float64{10, 10, 10}, verdictOK},
		{"worse inside the bound", lower, []float64{10, 10, 10}, []float64{10.9, 10.9, 10.9}, verdictOK},
		{"worse past the bound", lower, []float64{10, 10, 10}, []float64{11.5, 11.5, 11.5}, verdictRegressed},
		{"better is never a regression", lower, []float64{10, 10, 10}, []float64{5, 5, 5}, verdictOK},
		{"higher-is-better drops past the bound", higher, []float64{100, 100, 100}, []float64{94, 94, 94}, verdictRegressed},
		{"higher-is-better rises", higher, []float64{100, 100, 100}, []float64{140, 140, 140}, verdictOK},
		{"spread wider than the bound", lower, []float64{8, 10, 12.5}, []float64{10, 10, 10}, verdictUnresolved},
		{"unresolved even when the medians differ", lower, []float64{10, 10, 10}, []float64{10, 13, 16}, verdictUnresolved},
	} {
		if _, _, got := judge(tc.g, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestRequestBodiesCarryUniqueScans(t *testing.T) {
	c, err := buildCorpus(3, smokeScale(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBodies(c.Spectra, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	body := b.make(5, 123456789)
	if got := scanOf(body); got != 123456789 {
		t.Errorf("scanOf = %d, want 123456789", got)
	}
	var req struct {
		Spectra []struct {
			Scan  int          `json:"scan"`
			Peaks [][2]float64 `json:"peaks"`
		} `json:"spectra"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatalf("assembled body is not JSON: %v", err)
	}
	if len(req.Spectra) != 1 || req.Spectra[0].Scan != 123456789 || len(req.Spectra[0].Peaks) != len(c.Spectra[5].Peaks) {
		t.Errorf("assembled body does not carry spectrum 5 under the scan: %+v", req)
	}

	reply, err := renderReply(c.Spectra[5], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	scan, tail, ok := splitReply(reply)
	if !ok || scan != int64(c.Spectra[5].Scan) {
		t.Errorf("splitReply(%s) = scan %d ok %v", reply, scan, ok)
	}
	other := c.Spectra[5]
	other.Scan = 99
	reply2, _ := renderReply(other, nil, nil)
	if _, tail2, _ := splitReply(reply2); tail2 != tail {
		t.Error("the reply tail must not depend on the scan")
	}
	if _, _, ok := splitReply([]byte(`{"error":"x"}`)); ok {
		t.Error("an error body must not pass for a reply")
	}
}

// TestDistinctPoolCoversWhatCallersCanSend holds the all-distinct pool
// above what the served callers can send: each is answered at most once
// per FlushInterval as long as together they cannot fill a coalesced batch.
func TestDistinctPoolCoversWhatCallersCanSend(t *testing.T) {
	flush, batch := server.DefaultConfig().FlushInterval, server.DefaultConfig().BatchSize
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8, 64} {
		runtime.GOMAXPROCS(procs)
		for _, w := range workloads {
			if !w.distinctRequests() {
				continue
			}
			callers := w.callers()
			if callers >= batch {
				t.Errorf("%s at %d cores: %d callers fill a %d-query batch, so the flush interval no longer paces them", w.Name, procs, callers, batch)
			}
			for _, sc := range []scale{fullScale(defaultSeconds), fullScale(60), smokeScale()} {
				perSecond := float64(callers) / flush.Seconds()
				need := perSecond * (sc.WarmUp + sc.Window).Seconds()
				if got := sc.distinct(callers); float64(got) < need {
					t.Errorf("%s at %d cores: %d distinct spectra, %d callers can send %.0f in %v", w.Name, procs, got, callers, need, sc.WarmUp+sc.Window)
				}
			}
		}
	}
}

// TestBenchmarkJSONNamesWhatRunsReport holds BENCHMARK.json and the metric
// lists of this package in step.
func TestBenchmarkJSONNamesWhatRunsReport(t *testing.T) {
	data, err := os.ReadFile("../" + benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why == "" {
			t.Errorf("workload %d: %q (why %q), program has %q", i, w.Name, w.Why, workloads[i].Name)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n prog %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n prog %v", spec.PerLayer, perLayer)
	}

	// The README's table of gated metrics repeats every unit, direction and
	// bound.
	gates, err := readGates("../" + benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gates {
		want := fmt.Sprintf("| `%s` | %s | %s | %.2f |", g.Name, g.Unit, g.Better, g.Bound)
		if !bytes.Contains(readme, []byte(want)) {
			t.Errorf("README.md has no row %q", want)
		}
	}
}

// TestSmokeEveryWorkload drives all five workloads at 1/100 scale, traced
// and untraced: every named metric is reported exactly once with its
// unit, every answer verifies, and the layers a workload does not pass
// through stay at zero.
func TestSmokeEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(context.Background(), runConfig{
				Workload: w, Seed: 3, Scale: smokeScale(), Traced: traced, OutDir: dir, Log: io.Discard,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d named", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || d.Unit == "" {
					t.Errorf("%s traced=%v: metric %s reported %v (unit %q), want unit %q", w.Name, traced, d.Name, ok, v.Unit, d.Unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s is %g", w.Name, traced, d.Name, v.Value)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g; a gated metric may never read 0", w.Name, d.Name, v.Value)
				}
			}
			if !traced {
				continue
			}
			if got := res.Metrics["client.fail_ratio"].Value; got != 0 {
				t.Errorf("%s: client.fail_ratio = %g", w.Name, got)
			}
			onRouter := res.Metrics["router.handler_ms_p50"].Value > 0
			if onRouter != (w.Front == frontScatter) {
				t.Errorf("%s: router.handler_ms_p50 = %g", w.Name, res.Metrics["router.handler_ms_p50"].Value)
			}
			onServer := res.Metrics["server.handler_ms_p50"].Value > 0
			if onServer != (w.Front != frontSession) {
				t.Errorf("%s: server.handler_ms_p50 = %g", w.Name, res.Metrics["server.handler_ms_p50"].Value)
			}
			if w.Open && res.Metrics["slm.prune_ratio"].Value != 0 {
				t.Errorf("%s: an open search prunes nothing, prune_ratio = %g", w.Name, res.Metrics["slm.prune_ratio"].Value)
			}
			if _, err := os.Stat(dir + "/trace-" + w.Name + ".jsonl"); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != len(workloads) {
		t.Errorf("%d entries left in the output directory, want the %d trace files only", len(left), len(workloads))
	}
}
