package bench

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Series is one labeled curve of an experiment figure.
type Series struct {
	Label string    `json:"label"`
	X     []float64 `json:"x"`
	Y     []float64 `json:"y"`
}

// Figure is a reproduced paper figure: axis metadata plus its curves.
// Every figure is a pure function of its Options, so its JSON encoding
// at DefaultOptions is committed as docs/figures/BENCH_<id>.json and
// diffed by TestCommittedFigures.
type Figure struct {
	ID     string   `json:"id"` // e.g. "fig6"
	Title  string   `json:"title"`
	XLabel string   `json:"x_label"`
	YLabel string   `json:"y_label"`
	Series []Series `json:"series"`
	Notes  []string `json:"notes,omitempty"`
}

// JSON encodes the figure as its BENCH_<id>.json file: the bytes
// lbe-bench -json writes and TestCommittedFigures compares.
func (f Figure) JSON() ([]byte, error) {
	doc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(doc, '\n'), nil
}

// Markdown renders the figure as a markdown table with one column per
// series, suitable for EXPERIMENTS.md.
func (f Figure) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", strings.ToUpper(f.ID[:1])+f.ID[1:], f.Title)
	fmt.Fprintf(&sb, "| %s |", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&sb, " %s (%s) |", s.Label, f.YLabel)
	}
	sb.WriteString("\n|")
	for i := 0; i < len(f.Series)+1; i++ {
		sb.WriteString("---|")
	}
	sb.WriteString("\n")

	// Collect the union of X values in first-seen order.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	for _, x := range xs {
		fmt.Fprintf(&sb, "| %s |", trimFloat(x))
		for _, s := range f.Series {
			cell := ""
			for i, sx := range s.X {
				if sx == x {
					cell = trimFloat(s.Y[i])
					break
				}
			}
			fmt.Fprintf(&sb, " %s |", cell)
		}
		sb.WriteString("\n")
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&sb, "\n> %s\n", n)
	}
	return sb.String()
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
