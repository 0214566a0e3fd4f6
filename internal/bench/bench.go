// Package bench is the experiment harness: one runner per table and
// figure of the paper's §5 evaluation, each regenerating the same rows or
// series the paper reports. cmd/tocbench runs them by id and prints
// paper-style tables; bench_test.go wraps the same runners as testing.B
// benchmarks.
//
// Absolute numbers differ from the paper (Go on a laptop vs C++ on a 2019
// cloud VM, synthetic stand-in datasets, scaled-down sizes); what each
// experiment reproduces is the paper's *shape*: which method wins, by
// roughly what factor, and where the crossovers fall. benchmark/README.md
// records measured-vs-paper numbers on real costs.
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"toc/internal/data"
)

// Config controls experiment sizing.
type Config struct {
	// Scale multiplies dataset sizes; 1.0 is the default laptop scale.
	Scale float64
	// Seed makes every experiment deterministic.
	Seed int64
	// Dir is where spill files are created ("" = OS temp).
	Dir string
	// SpillShards is the spill shard count of the out-of-core
	// experiments (0 keeps the store's default layout).
	SpillShards int
	// SpillDirs, when non-empty, places spill shards across these
	// directories (modeling distinct devices) in the spill experiments.
	SpillDirs []string
}

// DefaultConfig returns the sizing used by cmd/tocbench and bench_test.go.
func DefaultConfig() Config { return Config{Scale: 1.0, Seed: 1} }

func (c Config) rows(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 10 {
		n = 10
	}
	return n
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// RenderCSV appends the table to w as CSV: a header row of "experiment"
// plus the column names, then one record per row prefixed with the
// experiment id. Concatenating several tables into one file keeps each
// self-describing, which is what the CI artifact comparison wants.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"experiment"}, t.Columns...)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(append([]string{t.ID}, row...)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Runner executes one experiment.
type Runner func(cfg Config) (*Table, error)

// Experiment is a registered paper artifact reproduction.
type Experiment struct {
	ID    string // paper artifact id: fig5, table6, ...
	Title string
	Run   Runner
}

var (
	mu          sync.Mutex
	experiments = map[string]Experiment{}
)

func register(id, title string, run Runner) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := experiments[id]; dup {
		panic(fmt.Sprintf("bench: duplicate experiment %q", id))
	}
	experiments[id] = Experiment{ID: id, Title: title, Run: run}
}

// Get returns the experiment registered under id.
func Get(id string) (Experiment, bool) {
	mu.Lock()
	defer mu.Unlock()
	e, ok := experiments[id]
	return e, ok
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(experiments))
	for id := range experiments {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// dataset cache so repeated experiments don't regenerate.
var (
	dsMu    sync.Mutex
	dsCache = map[string]*data.Dataset{}
)

func getDataset(name string, rows int, seed int64) (*data.Dataset, error) {
	key := fmt.Sprintf("%s/%d/%d", name, rows, seed)
	dsMu.Lock()
	defer dsMu.Unlock()
	if d, ok := dsCache[key]; ok {
		return d, nil
	}
	d, err := data.Generate(name, rows, seed)
	if err != nil {
		return nil, err
	}
	d.ShuffleOnce(seed + 1)
	dsCache[key] = d
	return d, nil
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
