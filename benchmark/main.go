// Command benchmark is the repository's benchmark: five closed-loop
// workloads over a 494 500-row store built from a seeded synthetic
// proteome, each reporting the end-to-end metrics gated in BENCHMARK.json
// (untraced) or the per-layer metrics (traced), with every answer checked.
// See benchmark/README.md.
//
// Usage, from the repository root:
//
//	go run ./benchmark --workload batch-open --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -all -out benchmark/out/results.json
//	go run ./benchmark -aa 2
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -pin 0,1,2
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

const (
	outDir         = "benchmark/out"
	benchmarkJSON  = "BENCHMARK.json"
	defaultSeconds = 10
	oracleSpectra  = 4 // per store; slm.BruteForce costs seconds per spectrum at this scale
)

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	all      bool
	aa       int
	compare  bool
	pin      string
	oracle   bool
	out      string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run one workload: batch-open|batch-narrow|serve-miss|serve-zipf|scatter-2x")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; pinned seeds are checked against "+pinsFile)
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0: untraced run reporting the end-to-end metrics; 1: traced run reporting the per-layer metrics")
	flag.BoolVar(&o.all, "all", false, "run every workload untraced then traced and write a result set to -out")
	flag.IntVar(&o.aa, "aa", 0, "run N untraced sets of every workload, alternating their order, and report each metric's spread")
	flag.BoolVar(&o.compare, "compare", false, "compare two result sets: -compare old.json new.json")
	flag.StringVar(&o.pin, "pin", "", "comma-separated seeds to pin in "+pinsFile+" (checks the first against slm.BruteForce)")
	flag.BoolVar(&o.oracle, "oracle", false, "check -seed's answers against slm.BruteForce and exit")
	flag.StringVar(&o.out, "out", filepath.Join(outDir, "results.json"), "result set file for -all and -aa")
	flag.Parse()
	o.traced = trace != 0

	// One root context: Ctrl-C or SIGTERM cancels every stage, and the
	// deferred tear-downs remove the temporary stores on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := dispatch(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(ctx context.Context, o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d must be at least 1", o.seconds)
	}
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result set files")
		}
		return runCompare(flag.Arg(0), flag.Arg(1))
	case o.pin != "":
		return runPin(ctx, o.pin, o.seconds)
	case o.oracle:
		return runOracle(ctx, o.seed, o.seconds)
	case o.all, o.aa > 0:
		return runSets(ctx, o)
	case o.workload != "":
		return runDriver(ctx, o)
	}
	flag.Usage()
	return fmt.Errorf("nothing to do: name a -workload or a mode")
}

// fullRun runs one workload at full scale, reporting to standard output.
func fullRun(ctx context.Context, o options, w workload, traced bool, p pins) (runResult, error) {
	return runOne(ctx, runConfig{
		Workload: w, Seed: o.seed, Scale: fullScale(o.seconds), Traced: traced,
		OutDir: outDir, Pins: p, Log: os.Stdout,
	})
}

// runDriver is the contract with the benchmark driver: one workload, the
// report on standard output, the result object as its last line, and a
// non-zero exit if any operation failed.
func runDriver(ctx context.Context, o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	p, err := loadPins(pinsFile)
	if err != nil {
		return err
	}
	res, err := fullRun(ctx, o, w, o.traced, p)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res.resultLine)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}

// runSets runs whole sets in this process: -all is one set untraced and
// traced; -aa N is N untraced sets of the same tree, odd sets in reverse
// workload order so that position in the set is not confounded with the
// set.
func runSets(ctx context.Context, o options) error {
	p, err := loadPins(pinsFile)
	if err != nil {
		return err
	}
	rs := resultSet{Env: describeEnvironment(ctx, o.seed, o.seconds)}
	sets, modes := 1, []bool{false, true}
	if o.aa > 0 {
		sets, modes = o.aa, []bool{false}
	}
	for set := 0; set < sets; set++ {
		order := slices.Clone(workloads)
		if set%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			for _, traced := range modes {
				res, err := fullRun(ctx, o, w, traced, p)
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s: %d of %d operations failed", w.Name, res.Failed, res.Attempted)
				}
				rs.Runs = append(rs.Runs, res)
			}
		}
	}
	if err := writeResultSet(o.out, rs); err != nil {
		return err
	}
	fmt.Println("result set written to", o.out)
	if o.aa > 0 {
		gates, err := readGates(benchmarkJSON)
		if err != nil {
			return err
		}
		reportSpread(os.Stdout, gates, rs)
	}
	return nil
}

func runCompare(oldPath, newPath string) error {
	gates, err := readGates(benchmarkJSON)
	if err != nil {
		return err
	}
	old, err := readResultSet(oldPath)
	if err != nil {
		return err
	}
	cur, err := readResultSet(newPath)
	if err != nil {
		return err
	}
	if n := compareSets(os.Stdout, gates, old, cur); n > 0 {
		return fmt.Errorf("%d metrics regressed", n)
	}
	return nil
}

// storeWorkloads has one workload per store kind; what is pinned and what
// the oracle checks is a property of the store, not of the front door.
var storeWorkloads = []workload{workloads[0], workloads[1]}

// withBuiltStore generates seed's corpus and hands fn each store kind set
// up once.
func withBuiltStore(ctx context.Context, seed uint64, seconds int, fn func(*rig, *corpus, scale) error) (*corpus, error) {
	sc := fullScale(seconds)
	c, err := buildCorpus(seed, sc, 0)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	for _, w := range storeWorkloads {
		tmp, err := os.MkdirTemp(outDir, "tmp-")
		if err != nil {
			return nil, err
		}
		r, err := setUp(ctx, w, c, sc, filepath.Join(tmp, "store"), nil)
		if err == nil {
			err = fn(r, c, sc)
			r.tearDown()
		}
		os.RemoveAll(tmp)
		if err != nil {
			return nil, fmt.Errorf("seed %d, %s store: %w", seed, w.storeKind(), err)
		}
	}
	return c, nil
}

// runOracle checks a few of seed's answers per store against brute force.
func runOracle(ctx context.Context, seed uint64, seconds int) error {
	_, err := withBuiltStore(ctx, seed, seconds, func(r *rig, c *corpus, sc scale) error {
		if err := oracleCheck(ctx, r, c, sc, oracleSpectra); err != nil {
			return err
		}
		fmt.Printf("seed %d, %s store: %d spectra agree with slm.BruteForce\n", seed, r.w.storeKind(), oracleSpectra)
		return nil
	})
	return err
}

// runPin re-pins the listed seeds: the first seed's answers are checked
// against brute force, then every seed's input fingerprint and golden
// digests are written to pins.json.
func runPin(ctx context.Context, list string, seconds int) error {
	p := pins{
		GoArch: runtime.GOARCH,
		Canary: platformCanary(),
		Oracle: fmt.Sprintf("%d spectra per store of the first seed agreed with slm.BruteForce when pinned", oracleSpectra),
		Seeds:  make(map[string]seedPin),
	}
	for i, field := range strings.Split(list, ",") {
		seed, err := strconv.ParseUint(strings.TrimSpace(field), 10, 64)
		if err != nil {
			return fmt.Errorf("-pin: %w", err)
		}
		sp := seedPin{Golden: make(map[string]string)}
		c, err := withBuiltStore(ctx, seed, seconds, func(r *rig, c *corpus, sc scale) error {
			if i == 0 {
				if err := oracleCheck(ctx, r, c, sc, oracleSpectra); err != nil {
					return err
				}
			}
			ref, err := referencePass(ctx, r, c, sc, sc.GoldenSample)
			if err != nil {
				return err
			}
			sp.Golden[r.w.storeKind()] = ref.golden
			sp.Shards = sc.Shards
			return nil
		})
		if err != nil {
			return err
		}
		sp.Fingerprint, sp.Rows = c.Fingerprint, c.Rows
		p.Seeds[strconv.FormatUint(seed, 10)] = sp
		fmt.Printf("seed %d pinned: %d rows, sha256 %s\n", seed, sp.Rows, sp.Fingerprint)
	}
	doc, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(pinsFile, append(doc, '\n'), 0o644)
}

// describeEnvironment fills a result set's environment block. Outside a
// git checkout the commit reads "unknown".
func describeEnvironment(ctx context.Context, seed uint64, seconds int) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		Seed:       seed,
		Seconds:    seconds,
	}
	if rev, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(rev))
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(rel))
	}
	return env
}
