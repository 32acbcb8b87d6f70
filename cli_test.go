package lbe_test

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lbe/internal/api"
)

// TestCLIPipeline builds the command-line tools and drives the full
// pipeline the README documents: generate -> digest -> cluster -> index
// -> search (with FDR) -> convert. It is the integration test of record
// for the binaries; run with -short to skip.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI integration test")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go binary not in PATH")
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		t.Fatal(err)
	}

	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(name, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v failed: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	// Build all binaries.
	repo, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(goBin, "build", "-o", bin+string(os.PathSeparator), "./cmd/...")
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	tool := func(name string) string { return filepath.Join(bin, name) }

	// 1. Generate a small dataset.
	out := run(tool("lbe-gen"), "-fasta", "db.fasta", "-ms2", "run.ms2",
		"-families", "12", "-spectra", "60", "-seed", "9")
	if !strings.Contains(out, "wrote db.fasta") {
		t.Fatalf("lbe-gen output: %s", out)
	}

	// 2. Digest.
	out = run(tool("lbe-digest"), "-in", "db.fasta", "-out", "peps.fasta")
	if !strings.Contains(out, "peptides") {
		t.Fatalf("lbe-digest output: %s", out)
	}

	// 3. Cluster.
	out = run(tool("lbe-cluster"), "-in", "peps.fasta", "-out", "clustered.fasta")
	if !strings.Contains(out, "groups") {
		t.Fatalf("lbe-cluster output: %s", out)
	}

	// 4. Index stats.
	out = run(tool("lbe-index"), "-in", "peps.fasta", "-max-mods", "1")
	if !strings.Contains(out, "index rows") {
		t.Fatalf("lbe-index output: %s", out)
	}

	// 5. Distributed search with FDR.
	out = run(tool("lbe-search"), "-db", "peps.fasta", "-ms2", "run.ms2",
		"-ranks", "3", "-policy", "cyclic", "-fdr", "-out", "psms.tsv")
	if !strings.Contains(out, "load imbalance") || !strings.Contains(out, "FDR") {
		t.Fatalf("lbe-search output: %s", out)
	}
	tsv, err := os.ReadFile(filepath.Join(dir, "psms.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(tsv)), "\n")
	if len(lines) < 2 {
		t.Fatalf("psms.tsv has no rows:\n%s", tsv)
	}
	if !strings.HasPrefix(lines[0], "scan\t") || !strings.Contains(lines[0], "qvalue") {
		t.Fatalf("psms.tsv header: %s", lines[0])
	}
	// Target-decoy competition runs over each query's best PSM: an
	// accepted count is a count of spectra, and only rank-1 rows carry a
	// q-value.
	count := func(format string) int {
		t.Helper()
		var n int
		i := strings.Index(out, strings.Fields(format)[0])
		if i < 0 {
			t.Fatalf("lbe-search output has no %q line: %s", format, out)
		}
		if _, err := fmt.Sscanf(out[i:], format, &n); err != nil {
			t.Fatalf("lbe-search output %q: %v: %s", format, err, out)
		}
		return n
	}
	spectra, accepted := count("queries: %d spectra"), count("FDR: %d")
	if accepted > spectra {
		t.Fatalf("-fdr accepted %d PSMs for %d spectra: deeper ranks entered the competition", accepted, spectra)
	}
	deeper := 0
	for _, line := range lines[1:] {
		f := strings.Split(line, "\t")
		if qv := f[len(f)-1]; f[1] != "1" {
			deeper++
			if qv != "NA" {
				t.Fatalf("rank %s row has q-value %s, want NA: %s", f[1], qv, line)
			}
		} else if _, err := strconv.ParseFloat(qv, 64); err != nil {
			t.Fatalf("rank-1 row has no q-value: %s", line)
		}
	}
	if deeper == 0 {
		t.Fatal("psms.tsv has no rank > 1 rows; the NA check needs some")
	}

	// 6. Serial baseline produces the same PSM count.
	run(tool("lbe-search"), "-db", "peps.fasta", "-ms2", "run.ms2",
		"-serial", "-out", "psms_serial.tsv")
	serialTSV, err := os.ReadFile(filepath.Join(dir, "psms_serial.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	serialLines := strings.Split(strings.TrimSpace(string(serialTSV)), "\n")
	// FDR run searched targets+decoys, so compare a fresh non-FDR run.
	run(tool("lbe-search"), "-db", "peps.fasta", "-ms2", "run.ms2",
		"-ranks", "3", "-out", "psms_plain.tsv")
	plainTSV, _ := os.ReadFile(filepath.Join(dir, "psms_plain.tsv"))
	plainLines := strings.Split(strings.TrimSpace(string(plainTSV)), "\n")
	if len(plainLines) != len(serialLines) {
		t.Fatalf("distributed (%d rows) and serial (%d rows) reports differ",
			len(plainLines), len(serialLines))
	}

	// 6b. Persistent store: lbe-index -out emits a session store, and a
	// warm-started lbe-search over it must reproduce the freshly built
	// run byte for byte. Neither side names -max-mods: the binaries share
	// one default, so a store and -db at default flags are one database.
	out = run(tool("lbe-index"), "-in", "peps.fasta", "-out", "store",
		"-ranks", "3")
	if !strings.Contains(out, "save time") {
		t.Fatalf("lbe-index -out output: %s", out)
	}
	run(tool("lbe-search"), "-index", "store", "-ms2", "run.ms2", "-out", "psms_store.tsv")
	storeTSV, err := os.ReadFile(filepath.Join(dir, "psms_store.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(storeTSV), "\t") || string(storeTSV) != string(plainTSV) {
		t.Fatalf("warm-started search differs from fresh build:\nstore: %d bytes\nfresh: %d bytes",
			len(storeTSV), len(plainTSV))
	}

	// 7. Convert MS2 -> mzML -> MS2.
	run(tool("lbe-convert"), "-in", "run.ms2", "-out", "run.mzML")
	out = run(tool("lbe-convert"), "-in", "run.mzML", "-out", "back.ms2")
	if !strings.Contains(out, "converted") {
		t.Fatalf("lbe-convert output: %s", out)
	}

	// 8. One quick benchmark figure, and a meaningless flag refused as a
	// usage error that names it.
	out = run(tool("lbe-bench"), "-fig", "6", "-scale", "0.00005", "-queries", "30", "-ranks", "2")
	if !strings.Contains(out, "Normalized load imbalance, 2 partitions") {
		t.Fatalf("lbe-bench output: %s", out)
	}
	bad := exec.Command(tool("lbe-bench"), "-fig", "6", "-ranks", "0")
	bad.Dir = dir
	badOut, err := bad.CombinedOutput()
	if code := bad.ProcessState.ExitCode(); code != 2 || !strings.Contains(string(badOut), "-ranks 0") {
		t.Fatalf("lbe-bench -ranks 0: exit %d (%v), want 2 naming the flag:\n%s", code, err, badOut)
	}

	// 9. Serve the database over HTTP two ways — a fresh build from
	// FASTA and a warm start from a store emitted by lbe-index -out —
	// and assert both serve byte-identical /search responses before
	// driving the warm one with the load client.
	run(tool("lbe-index"), "-in", "peps.fasta", "-out", "store2",
		"-ranks", "2", "-max-mods", "1")

	fresh := startServe(t, dir, tool("lbe-serve"),
		"-db", "peps.fasta", "-addr", "127.0.0.1:0", "-ranks", "2", "-max-mods", "1")
	warm := startServe(t, dir, tool("lbe-serve"),
		"-index", "store2", "-addr", "127.0.0.1:0")

	const searchBody = `{"spectra":[{"scan":1,"precursor_mz":500.3,"charge":2,` +
		`"peaks":[[147.11,1.0],[262.14,0.8],[375.22,0.6]]}]}`
	freshResp := postJSON(t, fresh.base, searchBody)
	warmResp := postJSON(t, warm.base, searchBody)
	if freshResp != warmResp {
		t.Fatalf("fresh and warm-started servers answered differently:\nfresh: %s\nwarm:  %s",
			freshResp, warmResp)
	}

	out = run(tool("lbe-client"), "-addr", warm.base, "-ms2", "run.ms2",
		"-n", "15", "-c", "4", "-require-matches", "-q")
	if !strings.Contains(out, "0 failed") || !strings.Contains(out, "0 empty") {
		t.Fatalf("lbe-client output: %s", out)
	}

	// 10. Multi-node serving: a second warm replica from the same store
	// plus an lbe-router over both. The routed response must be
	// byte-identical to the single replica's, and the load client must
	// succeed through the router unchanged.
	warm2 := startServe(t, dir, tool("lbe-serve"),
		"-index", "store2", "-addr", "127.0.0.1:0")
	routerProc := startServe(t, dir, tool("lbe-router"),
		"-addr", "127.0.0.1:0", "-replicas", warm.base+","+warm2.base,
		"-probe", "250ms")
	routedResp := postJSON(t, routerProc.base, searchBody)
	if routedResp != warmResp {
		t.Fatalf("routed response differs from the replica's:\nrouter: %s\nreplica: %s",
			routedResp, warmResp)
	}
	out = run(tool("lbe-client"), "-addr", routerProc.base, "-ms2", "run.ms2",
		"-n", "15", "-c", "4", "-require-matches", "-q")
	if !strings.Contains(out, "0 failed") || !strings.Contains(out, "0 empty") {
		t.Fatalf("lbe-client via router output: %s", out)
	}

	// Graceful drain on interrupt: router first, then every replica.
	routerProc.drain(t)
	fresh.drain(t)
	warm.drain(t)
	warm2.drain(t)
}

// postJSON posts a /search body through the typed api client and returns
// the raw response body, so byte-level comparisons stay exact.
func postJSON(t *testing.T, base, body string) string {
	t.Helper()
	client := api.New(base)
	status, b, err := client.Do(context.Background(), http.MethodPost, "/search", []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("POST %s/search: status %d: %s", base, status, b)
	}
	return string(b)
}

// serveProc is one running lbe-serve under test.
type serveProc struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	scanDone chan struct{}
	logText  func() string
}

// startServe boots an lbe-serve or lbe-router process and waits for its
// resolved listen address (both log the same load-bearing "listening on"
// line). The log builder is written by the scanner goroutine and read by
// the test, so it is mutex-guarded; scanDone orders the final read and
// cmd.Wait after the scanner's last pipe access.
func startServe(t *testing.T, dir, bin string, args ...string) *serveProc {
	t.Helper()
	serve := exec.Command(bin, args...)
	serve.Dir = dir
	stderr, err := serve.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { serve.Process.Kill() })

	addr := make(chan string, 1)
	var logMu sync.Mutex
	var serveLog strings.Builder
	p := &serveProc{cmd: serve, scanDone: make(chan struct{})}
	p.logText = func() string {
		logMu.Lock()
		defer logMu.Unlock()
		return serveLog.String()
	}
	go func() {
		defer close(p.scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			logMu.Lock()
			serveLog.WriteString(line + "\n")
			logMu.Unlock()
			if _, rest, ok := strings.Cut(line, ": listening on "); ok {
				addr <- rest
			}
		}
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
	case <-time.After(2 * time.Minute):
		t.Fatalf("%s never reported its address:\n%s", filepath.Base(bin), p.logText())
	}
	return p
}

// drain interrupts the server and asserts a clean exit. The scanner
// drains stderr to EOF (process exit) before Wait closes the pipe.
func (p *serveProc) drain(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	<-p.scanDone
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("%s did not exit cleanly: %v\n%s", filepath.Base(p.cmd.Path), err, p.logText())
	}
}
