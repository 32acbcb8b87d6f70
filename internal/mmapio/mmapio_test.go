package mmapio

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "blob")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenReadsFileBytes(t *testing.T) {
	want := bytes.Repeat([]byte("mmapio"), 1000)
	m, err := Open(writeTemp(t, want))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if runtime.GOOS == "linux" && !m.Mapped() {
		t.Error("expected a real mapping on linux")
	}
	if got := m.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("mapped bytes differ from file contents (len %d vs %d)", len(got), len(want))
	}
	// Advice is best-effort but must never fail on a live mapping.
	for _, a := range []Advice{AdviceRandom, AdviceSequential} {
		if err := m.Advise(a); err != nil {
			t.Errorf("Advise(%d): %v", a, err)
		}
	}
}

func TestOpenEmptyFile(t *testing.T) {
	m, err := Open(writeTemp(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if len(m.Bytes()) != 0 || m.Mapped() {
		t.Errorf("empty file: len=%d mapped=%v, want 0/false", len(m.Bytes()), m.Mapped())
	}
}

func TestOpenMissingAndIrregular(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing file must fail")
	}
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("directory must fail")
	}
}

func TestCloseIdempotent(t *testing.T) {
	m, err := Open(writeTemp(t, []byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if m.Bytes() != nil {
		t.Error("Bytes must be nil after Close")
	}
	if m.Advise(AdviceRandom) != nil {
		t.Error("Advise after Close must be a no-op")
	}
}
