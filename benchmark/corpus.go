package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"time"

	"lbe/internal/bench"
	"lbe/internal/gen"
	"lbe/internal/spectrum"
)

// corpus is everything the generator makes from the seed: the digested,
// deduplicated peptide list of a synthetic proteome sized to the row
// target, and one stream of query spectra. The stream's first Pool entries
// are the shared pool (batch drivers cycle it, serve-zipf draws from it);
// the rest are the all-distinct requests of serve-miss and scatter-2x.
type corpus struct {
	Peptides    []string
	Rows        int
	Spectra     []spectrum.Experimental
	GenSeconds  float64
	Fingerprint string
}

// abundanceExponent skews which peptides the spectra are sampled from. It
// is milder than gen's default 1.1, under which three peptides emit a
// quarter of all spectra and a seed's choice of those three decides how
// much work the whole pool is; at 0.5 no peptide emits more than 0.3 % of
// the pool, so a seed changes which peptides are hot, not how hot.
const abundanceExponent = 0.5

// buildCorpus generates the inputs for seed. distinct is how many spectra
// beyond the shared pool the workload needs.
func buildCorpus(seed uint64, sc scale, distinct int) (*corpus, error) {
	start := time.Now()
	c, err := bench.SizedCorpus(sc.Rows, 0, seed, modConfig())
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	scfg := gen.DefaultSpectraConfig()
	scfg.Seed = seed + 1
	scfg.NumSpectra = sc.Pool + distinct
	scfg.ZipfExponent = abundanceExponent
	scfg.Mods = modConfig()
	spectra, _, err := gen.Spectra(c.Peptides, scfg)
	if err != nil {
		return nil, fmt.Errorf("generating spectra: %w", err)
	}
	out := &corpus{
		Peptides:   c.Peptides,
		Rows:       c.Rows,
		Spectra:    spectra,
		GenSeconds: time.Since(start).Seconds(),
	}
	out.Fingerprint = fingerprint(out.Peptides, out.Spectra[:sc.Pool])
	return out, nil
}

// fingerprint is the SHA-256 of the peptide list and the shared pool. The
// distinct requests behind the pool are not covered so that the value does
// not depend on how long a run was asked for; they come out of the same
// generator call, so a drift there shows in the pool too.
func fingerprint(peptides []string, spectra []spectrum.Experimental) string {
	h := sha256.New()
	for _, p := range peptides {
		io.WriteString(h, p)
		h.Write([]byte{'\n'})
	}
	var buf [16]byte
	for _, e := range spectra {
		binary.LittleEndian.PutUint64(buf[:8], uint64(int64(e.Scan)))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(e.PrecursorMZ))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:8], uint64(int64(e.Charge)))
		binary.LittleEndian.PutUint64(buf[8:], uint64(len(e.Peaks)))
		h.Write(buf[:])
		for _, p := range e.Peaks {
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(p.MZ))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Intensity))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinsFile is where the pinned fingerprints and golden digests live.
const pinsFile = "benchmark/pins.json"

// seedPin is what is pinned for one seed at full scale.
type seedPin struct {
	Fingerprint string `json:"fingerprint"`
	Rows        int    `json:"rows"`
	Shards      int    `json:"shards"`
	// Golden maps a store kind ("open", "narrow") to the digest of the
	// reference session's answers to the pool's first GoldenSample spectra.
	Golden map[string]string `json:"golden"`
}

// pins is the content of pins.json. Canary identifies the floating-point
// behaviour of the platform the pins were taken on (math.Exp and friends
// take an FMA path on some CPUs); on a platform whose canary differs the
// pins do not apply and are skipped with a note instead of failing runs
// over rounding that no code change caused.
type pins struct {
	GoArch string             `json:"goarch"`
	Canary string             `json:"canary"`
	Oracle string             `json:"oracle"`
	Seeds  map[string]seedPin `json:"seeds"`
}

// platformCanary hashes the bits of the math functions the generator and
// the scorer lean on, over a fixed input grid.
func platformCanary() string {
	h := sha256.New()
	var buf [8]byte
	for i := 1; i <= 512; i++ {
		x := float64(i) * 0.173
		for _, v := range []float64{math.Exp(x / 40), math.Log(x), math.Pow(x, 1.1), math.Sqrt(x)} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// loadPins reads pins.json. A file that is missing or does not parse is an
// error: without it a run would check neither its inputs nor its answers
// against anything pinned, and still report. Only a foreign platform yields
// empty pins, with a line on standard output saying so.
func loadPins(path string) (pins, error) {
	var p pins
	data, err := os.ReadFile(path)
	if err != nil {
		return p, fmt.Errorf("pins: %w", err)
	}
	if err := json.Unmarshal(data, &p); err != nil {
		return p, fmt.Errorf("pins: %s: %w", path, err)
	}
	if len(p.Seeds) == 0 {
		return p, fmt.Errorf("pins: %s pins no seed", path)
	}
	if p.GoArch != runtime.GOARCH || p.Canary != platformCanary() {
		fmt.Printf("pins taken on %s/%s do not apply to this platform (%s/%s)\n",
			p.GoArch, p.Canary, runtime.GOARCH, platformCanary())
		return pins{}, nil
	}
	return p, nil
}

// forSeed returns the pin of seed, if one exists.
func (p pins) forSeed(seed uint64) (seedPin, bool) {
	sp, ok := p.Seeds[strconv.FormatUint(seed, 10)]
	return sp, ok
}

// checkInputs refuses a run whose generated inputs drifted from the pin:
// a change to internal/gen or internal/digest must not silently change
// what is measured.
func (sp seedPin) checkInputs(c *corpus, sc scale) error {
	if sp.Fingerprint != c.Fingerprint || sp.Rows != c.Rows || sp.Shards != sc.Shards {
		return fmt.Errorf("generated inputs drifted from %s: fingerprint %s rows %d shards %d, pinned %s rows %d shards %d",
			pinsFile, c.Fingerprint, c.Rows, sc.Shards, sp.Fingerprint, sp.Rows, sp.Shards)
	}
	return nil
}
