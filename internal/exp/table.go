// Package exp is the experiment harness: one generator per table and
// figure in the paper's evaluation section (§4). Each generator runs
// the necessary simulations through the public seec API, dispatched by
// the sweep planner (internal/plan), and returns a Table that
// cmd/figures renders as aligned text or CSV, and that bench_test.go's
// per-figure benchmarks execute.
package exp

import (
	"context"
	"fmt"
	"io"
	"strings"

	"seec"
	"seec/internal/plan"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string // e.g. "fig8", "table3"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row, stringifying the cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	row := make([]string, 0, len(t.Header))
	for _, h := range t.Header {
		row = append(row, esc(h))
	}
	fmt.Fprintln(w, strings.Join(row, ","))
	for _, r := range t.Rows {
		row = row[:0]
		for _, c := range r {
			row = append(row, esc(c))
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// Scale sets how much work the generators do. Quick keeps everything
// laptop-interactive; Full approaches the paper's sweep sizes.
type Scale struct {
	SimCycles    int64     // measured cycles per synthetic run
	MeshSizes    []int     // k for k x k meshes
	Rates        []float64 // injection-rate sweep
	AppTxns      int64     // transactions per application run
	Apps         []string  // application subset
	SatCycles    int64     // cycles per point during saturation search
	MaxAppCycles int64

	// Workers bounds the worker pool of the in-memory planner a
	// generator builds when Planner is nil; 0 selects
	// runtime.GOMAXPROCS(0). Every job derives its RNG seed from its
	// own coordinates (Config.SweepSeed), so the rendered tables are
	// byte-identical at any worker count.
	Workers int

	// Shards is copied into every launched simulation's Config (see
	// seec.Config.Shards): intra-run parallelism on top of the
	// cross-job worker pool. Sharded runs are byte-identical to serial
	// ones, so the rendered tables are unchanged at any value; cap
	// Workers * Shards near GOMAXPROCS to avoid oversubscription.
	Shards int

	// Instrument is copied into the Config of every simulation a
	// generator launches (see seec.Config.Instrument); cmd/figures uses
	// it to attach tracers, metrics and watchdogs to figure runs.
	// Observation only — rendered tables are identical either way. A
	// cache hit executes nothing and so runs no hook: pair Instrument
	// with a NoReuse planner (the nil-Planner default does).
	Instrument func(*seec.Sim) func()

	// RunEvents and HeartbeatEvery are copied into each launched
	// simulation's Config (see seec.Config.Telemetry), feeding in-run
	// heartbeats to the caller. Observation only.
	RunEvents      func(*seec.Sim) func(seec.RunEvent)
	HeartbeatEvery int64

	// Planner routes every simulation a generator launches through the
	// memoizing sweep planner (internal/plan), which owns the pool
	// knobs (workers, job timeout, breaker, telemetry bus, progress)
	// and warmup sharing. Grid generators compile their whole cell list
	// into one reuse-aware schedule (see simCells); application runs,
	// saturation probes and one-off measurements run as plan.Map cells
	// and resolve through the planner's cache. Dedup, memoization and
	// cost-model scheduling are byte-identity-preserving, so rendered
	// tables match a NoReuse planner exactly; WarmupShare on the
	// planner additionally forks rate sweeps from shared warm
	// checkpoints, which changes the sampling plan. Nil means a fresh
	// in-memory planner per generator call, sized by Workers and
	// Shards, with NoReuse set when Instrument is.
	Planner *plan.Planner
}

// resolve returns s with a planner attached: the caller's, or a fresh
// in-memory one (see Scale.Planner). Every generator calls it once, so
// all of a generator's cells share one planner.
func (s Scale) resolve() Scale {
	if s.Planner == nil {
		// Without a cache directory New cannot fail.
		s.Planner, _ = plan.New(plan.Options{
			Workers: s.Workers,
			Shards:  s.Shards,
			NoReuse: s.Instrument != nil,
		})
	}
	return s
}

// runSynthetic resolves one synthetic cell through the planner's
// content-addressed cache. The cache key is computed before
// instrumentation attaches, matching serve.CacheKey's canonicalization
// — observation hooks never change a result's bytes, so they must not
// change its address either.
func (s Scale) runSynthetic(ctx context.Context, cfg seec.Config) (seec.Result, error) {
	return s.Planner.RunOne(ctx, cfg, s.runSyntheticDirect)
}

// runSyntheticDirect is seec.RunSyntheticCtx with the scale's
// instrumentation attached: the planner's RunFunc. The context comes
// from the cell's pool slot, so per-job deadlines and the circuit
// breaker can interrupt a run between cycles.
func (s Scale) runSyntheticDirect(ctx context.Context, cfg seec.Config) (seec.Result, error) {
	cfg.Instrument = s.Instrument
	cfg.Telemetry = s.RunEvents
	cfg.HeartbeatEvery = s.HeartbeatEvery
	cfg.Shards = s.Shards
	if cfg.Scheme == seec.SchemeCHIPPER || cfg.Scheme == seec.SchemeMinBD {
		// The deflection network has no sharded path; run it serially
		// rather than failing the whole sweep.
		cfg.Shards = 0
	}
	return seec.RunSyntheticCtx(ctx, cfg)
}

// runApplication resolves one application run through the planner's
// cache, keyed by plan.AppKey — the config plus the workload identity.
func (s Scale) runApplication(ctx context.Context, cfg seec.Config, app string, txns, maxCycles int64) (seec.AppResult, error) {
	return plan.Memoize(ctx, s.Planner, plan.AppKey(cfg, app, txns, maxCycles),
		func(ctx context.Context) (seec.AppResult, error) {
			return s.runApplicationDirect(ctx, cfg, app, txns, maxCycles)
		})
}

// runApplicationDirect is seec.RunApplicationCtx with the scale's
// instrumentation attached.
func (s Scale) runApplicationDirect(ctx context.Context, cfg seec.Config, app string, txns, maxCycles int64) (seec.AppResult, error) {
	cfg.Instrument = s.Instrument
	cfg.Telemetry = s.RunEvents
	cfg.HeartbeatEvery = s.HeartbeatEvery
	cfg.Shards = s.Shards
	return seec.RunApplicationCtx(ctx, cfg, app, txns, maxCycles)
}

// Quick returns the fast preset used by tests and default CLI runs.
func Quick() Scale {
	return Scale{
		SimCycles:    8000,
		MeshSizes:    []int{4, 8},
		Rates:        []float64{0.02, 0.06, 0.10, 0.14, 0.18, 0.22, 0.26, 0.30},
		AppTxns:      3000,
		Apps:         []string{"blackscholes", "canneal", "fft"},
		SatCycles:    5000,
		MaxAppCycles: 3_000_000,
	}
}

// Medium returns a 16x16-focused preset: the quick preset already
// covers 4x4 and 8x8; this one adds the paper's largest mesh with a
// coarser rate sweep, plus the full application list.
func Medium() Scale {
	return Scale{
		SimCycles: 10000,
		MeshSizes: []int{16},
		Rates:     []float64{0.02, 0.05, 0.08, 0.11, 0.14, 0.17},
		AppTxns:   8000,
		Apps: []string{"blackscholes", "bodytrack", "canneal", "dedup",
			"fluidanimate", "swaptions", "barnes", "fft", "lu", "radix", "water-nsq"},
		SatCycles:    6000,
		MaxAppCycles: 10_000_000,
	}
}

// Full returns the paper-scale preset (Fig. 8's 4x4/8x8/16x16 meshes,
// denser rate sweeps, all eleven applications).
func Full() Scale {
	return Scale{
		SimCycles: 20000,
		MeshSizes: []int{4, 8, 16},
		Rates: []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16,
			0.18, 0.20, 0.24, 0.28, 0.32, 0.36, 0.40},
		AppTxns: 8000,
		Apps: []string{"blackscholes", "bodytrack", "canneal", "dedup",
			"fluidanimate", "swaptions", "barnes", "fft", "lu", "radix", "water-nsq"},
		SatCycles:    8000,
		MaxAppCycles: 10_000_000,
	}
}
