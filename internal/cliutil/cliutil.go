// Package cliutil holds small helpers shared by the cmd/ binaries, so
// flag-contract and data-prep behavior cannot drift between them.
package cliutil

import (
	"flag"

	"lbe/internal/digest"
)

// DefaultMaxMods is the -max-mods default of lbe-index, lbe-serve and
// lbe-search. It decides which rows exist, so one value keeps a store
// built at default flags the database `-db` at default flags builds.
const DefaultMaxMods = 2

// ExplicitlySet reports which of the named flags were set on the command
// line, in flag.Visit (lexical) order. The binaries use it to reject
// flags that a session store or report mode fixes, instead of silently
// ignoring them — one shared rejection mechanism, per-binary name lists.
func ExplicitlySet(names ...string) []string {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []string
	flag.Visit(func(f *flag.Flag) {
		if want[f.Name] {
			out = append(out, f.Name)
		}
	})
	return out
}

// DigestPeptides runs the default in-silico tryptic digestion over
// protein sequences and returns the deduplicated peptide list — the one
// -digest pipeline every binary must share so their databases match.
func DigestPeptides(proteins []string) ([]string, error) {
	peps, err := digest.DefaultConfig().Proteome(proteins)
	if err != nil {
		return nil, err
	}
	return digest.Sequences(digest.Dedup(peps)), nil
}
