package experiments

import (
	"fmt"
	"strings"

	"hornet/internal/sweep"
)

// Figure is one runnable experiment: a name, a human title, and the
// sweep-backed runner. Serial figures measure wall-clock time and ignore
// Options.Parallel.
type Figure struct {
	Name   string
	Title  string
	Serial bool
	// usesWorkers marks the one figure (6a) whose output depends on
	// Options.Workers; only then does the worker list enter the cache key.
	usesWorkers bool
	run         func(o Options) (any, []sweep.Result)
}

// Run executes the figure, returning its typed rows (a []Fig8Row for
// figure 8, a Fig12Result for figure 12, ...) plus the per-run sweep
// records for emission. If Options.Context is cancelled mid-figure, Run
// returns nil rows and only the completed runs of the in-flight sweep
// (post-processing needs the full set).
func (f Figure) Run(o Options) (any, []sweep.Result) {
	rows, results, _ := f.runRecover(o)
	return rows, results
}

// runRecover invokes the figure's runner, converting a sweep cancelled
// via Options.Context into (nil rows, completed prefix, ctx error).
func (f Figure) runRecover(o Options) (rows any, results []sweep.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			cs, ok := p.(canceledSweep)
			if !ok {
				panic(p)
			}
			rows, results, err = nil, cs.results, cs.err
		}
	}()
	rows, results = f.run(o)
	return rows, results, nil
}

// ConfigHash returns the figure's document cache key at the given
// options without running the sweep: a stable hash over the figure name
// and every option that can change the output (scale, seed, worker
// list) — and nothing else, so parallelism does not shift the key.
func (f Figure) ConfigHash(o Options) string {
	(&o).fill()
	return sweep.ConfigHash(f.Name, o.identity(f.usesWorkers))
}

// Document executes the figure and packages the per-run records into the
// stable JSON envelope: for a fixed (name, options identity, seed) the
// document is byte-identical at any Parallel/Budget setting. Timing
// figures are the exception — their rows carry wall-clock fields.
//
// If Options.Context is cancelled mid-figure, Document returns a partial
// document holding the completed runs of the sweep that was in flight
// (multi-sweep figures drop earlier sweeps' runs), along with the
// context's error; partial documents must not be cached under the
// figure's hash.
func (f Figure) Document(o Options) (any, sweep.Document, error) {
	(&o).fill()
	rows, results, err := f.runRecover(o)
	return rows, sweep.NewDocument(f.Name, f.ConfigHash(o), o.Seed, results), err
}

// Figures lists every experiment in presentation order.
func Figures() []Figure {
	return []Figure{
		{Name: "t1", Title: "Table I: configuration matrix smoke",
			run: func(o Options) (any, []sweep.Result) { return anyRows(tableI(o)) }},
		{Name: "4a", Title: "§IV-A: worst-link flow count and starvation",
			run: func(o Options) (any, []sweep.Result) { r, res := sec4a(o); return r, res }},
		{Name: "6a", Title: "Fig 6a: parallel speedup vs workers", Serial: true, usesWorkers: true,
			run: func(o Options) (any, []sweep.Result) { return anyRows(fig6a(o)) }},
		{Name: "6b", Title: "Fig 6b: speedup & accuracy vs sync period", Serial: true,
			run: func(o Options) (any, []sweep.Result) { return anyRows(fig6b(o)) }},
		{Name: "7", Title: "Fig 7: fast-forwarding benefit", Serial: true,
			run: func(o Options) (any, []sweep.Result) { return anyRows(fig7(o)) }},
		{Name: "8", Title: "Fig 8: congestion effect on flit latency",
			run: func(o Options) (any, []sweep.Result) { return anyRows(fig8(o)) }},
		{Name: "9", Title: "Fig 9: VC configuration vs in-network latency",
			run: func(o Options) (any, []sweep.Result) { return anyRows(fig9(o)) }},
		{Name: "10", Title: "Fig 10: routing x VCA on WATER",
			run: func(o Options) (any, []sweep.Result) { return anyRows(fig10(o)) }},
		{Name: "11", Title: "Fig 11: memory controllers vs latency (RADIX)",
			run: func(o Options) (any, []sweep.Result) { return anyRows(fig11(o)) }},
		{Name: "12", Title: "Fig 12: trace-based vs integrated simulation (Cannon)",
			run: func(o Options) (any, []sweep.Result) { r, res := fig12(o); return r, res }},
		{Name: "13", Title: "Fig 13: temperature over time",
			run: func(o Options) (any, []sweep.Result) { return anyRows(fig13(o)) }},
		{Name: "14", Title: "Fig 14: steady-state temperature maps",
			run: func(o Options) (any, []sweep.Result) { return anyRows(fig14(o)) }},
		{Name: "conv", Title: "Measurement-window convergence (warmup-once/fork-many)",
			run: func(o Options) (any, []sweep.Result) { return anyRows(convergence(o)) }},
	}
}

func anyRows[T any](rows []T, results []sweep.Result) (any, []sweep.Result) {
	return rows, results
}

// FigureByName resolves a figure by name, tolerating a "fig" prefix and
// case ("Fig8", "fig6a", "8" all name Fig 8).
func FigureByName(name string) (Figure, bool) {
	n := strings.ToLower(strings.TrimSpace(name))
	n = strings.TrimPrefix(n, "fig")
	n = strings.TrimPrefix(n, "table")
	for _, f := range Figures() {
		if f.Name == n {
			return f, true
		}
	}
	return Figure{}, false
}

// FigureNames returns the names in presentation order.
func FigureNames() []string {
	var out []string
	for _, f := range Figures() {
		out = append(out, f.Name)
	}
	return out
}

// ParseFigureList resolves a comma-separated figure list ("8,9,t1").
func ParseFigureList(s string) ([]Figure, error) {
	var out []Figure
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		f, ok := FigureByName(tok)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown figure %q (have %s)",
				tok, strings.Join(FigureNames(), " "))
		}
		out = append(out, f)
	}
	return out, nil
}
