package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seec"
	"seec/internal/exp"
	"seec/internal/plan"
)

// referencePath is the checked-in quick-scale figure record; every
// section figures-slice renders must match it byte for byte.
const referencePath = "results/figures_quick.txt"

const figuresCountsPath = "perfbench/data/figures_counts.json"

// sweepWorkers is the planner's worker pool: at most two goroutines
// simulate at once.
const sweepWorkers = 2

type generator struct {
	id  string
	run func(exp.Scale) []*exp.Table
}

func one(f func(exp.Scale) *exp.Table) func(exp.Scale) []*exp.Table {
	return func(s exp.Scale) []*exp.Table { return []*exp.Table{f(s)} }
}

// sliceGenerators are the figure generators of the slice: synthetic
// sweeps (10a, 10b, 11), coherence applications (14, 15) and the
// fault layer (resilience).
func sliceGenerators() []generator {
	return []generator{
		{"10a", one(exp.Fig10a)}, {"10b", one(exp.Fig10b)}, {"11", one(exp.Fig11)},
		{"14", one(exp.Fig14)}, {"15", one(exp.Fig15)}, {"resilience", one(exp.Resilience)},
	}
}

// figureCounts are figures-slice's exact work counts: the cold pass's
// simulated work and planner decisions, and one warm pass's planner
// decisions. The inputs are fixed, so they are fixed too.
type figureCounts struct {
	Cold     workCounts `json:"cold"`
	ColdRuns int64      `json:"cold_runs"`
	ColdPlan plan.Stats `json:"cold_plan"`
	WarmPlan plan.Stats `json:"warm_plan"`
}

// runHook observes every simulation a generator launches, through
// Scale.RunEvents: it times each run from the built simulator to its
// RunDone event and sums the run's work counters.
type runHook struct {
	tr     *Tracer
	parent atomic.Int64 // the generator span runs are attributed to
	req    atomic.Int64

	mu     sync.Mutex
	runs   int64
	busy   time.Duration
	counts workCounts
}

func (h *runHook) events(s *seec.Sim) func(seec.RunEvent) {
	start := time.Now()
	return func(ev seec.RunEvent) {
		if ev.Kind != seec.RunDone {
			return
		}
		end := time.Now()
		name := "noc.run"
		if s.Net == nil {
			name = "deflect.run"
		}
		h.tr.Span(name, h.parent.Load(), h.req.Load(), start, end)
		h.mu.Lock()
		h.runs++
		h.busy += end.Sub(start)
		h.counts.addSim(s)
		h.mu.Unlock()
	}
}

// sweepPass runs every generator once through a fresh planner over
// cacheDir and renders the tables. It returns the rendered bytes per
// generator, the time spent rendering and the planner's counters.
func sweepPass(gens []generator, cacheDir string, hook *runHook, tr *Tracer, parent int64) (map[string][]byte, time.Duration, plan.Stats, error) {
	p, err := plan.New(plan.Options{Workers: sweepWorkers, CacheDir: cacheDir})
	if err != nil {
		return nil, 0, plan.Stats{}, err
	}
	sc := exp.Quick()
	sc.Workers = sweepWorkers
	sc.Planner = p
	sc.RunEvents = hook.events
	out := map[string][]byte{}
	var render time.Duration
	for i, g := range gens {
		id := tr.ID()
		hook.parent.Store(id)
		hook.req.Store(int64(i + 1))
		t0 := time.Now()
		tables := g.run(sc)
		t1 := time.Now()
		var buf bytes.Buffer
		for _, t := range tables {
			t.Render(&buf)
		}
		t2 := time.Now()
		render += t2.Sub(t1)
		out[g.id] = buf.Bytes()
		tr.Span("exp.render", id, int64(i+1), t1, t2)
		tr.Add(Span{ID: id, Parent: parent, Name: "plan.generate." + g.id, Req: int64(i + 1), Start: tr.At(t0), End: tr.At(t2)})
	}
	return out, render, p.Stats(), nil
}

// referenceSections splits the checked-in figure record into its
// sections, keyed by their "== id: title ==" header line.
func referenceSections() (map[string][]byte, error) {
	b, err := os.ReadFile(referencePath)
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, sec := range strings.SplitAfter(string(b), "\n\n") {
		if head, _, ok := strings.Cut(sec, "\n"); ok && strings.HasPrefix(head, "== ") {
			out[head] = []byte(sec)
		}
	}
	return out, nil
}

// checkAgainstReference compares every rendered table with its section
// of the reference record.
func checkAgainstReference(out *outcome, ref map[string][]byte, rendered map[string][]byte) {
	for id, b := range rendered {
		for _, sec := range strings.SplitAfter(string(b), "\n\n") {
			if sec == "" {
				continue
			}
			out.attempted++
			head, _, _ := strings.Cut(sec, "\n")
			if want, ok := ref[head]; !ok || !bytes.Equal(want, []byte(sec)) {
				out.fail("figures-slice: fig %s section %q differs from %s", id, head, referencePath)
			}
		}
	}
}

// runFiguresSlice runs one cold pass of the slice into an empty result
// cache, then warm passes, each through a fresh planner over the same
// cache, until the timed window has elapsed. The sweep's configurations
// are the paper's and are checked against the committed record, so the
// seed does not change them.
func runFiguresSlice(e *env) (*outcome, error) {
	out := newOutcome()
	gens := sliceGenerators()
	ref, err := referenceSections()
	if err != nil {
		return nil, err
	}
	want, err := loadFigureCounts()
	if err != nil {
		return nil, err
	}
	cacheDir := filepath.Join(e.work, "figcache")

	tr := e.tracer
	root := tr.ID()
	hook := &runHook{tr: tr}
	start := time.Now()
	coldID := tr.ID()
	cold, _, coldPlan, err := sweepPass(gens, cacheDir, hook, tr, coldID)
	if err != nil {
		return nil, err
	}
	coldEnd := time.Now()
	coldWall := coldEnd.Sub(start)
	tr.Add(Span{ID: coldID, Parent: root, Name: "exp.cold_pass", Start: tr.At(start), End: tr.At(coldEnd)})
	checkAgainstReference(out, ref, cold)
	hook.mu.Lock()
	got := figureCounts{Cold: hook.counts, ColdRuns: hook.runs, ColdPlan: coldPlan}
	busy := hook.busy
	hook.mu.Unlock()

	// Set-up: opening the planner over the result cache, as a figures
	// re-run does before its first job. Repeated; the median is reported.
	var rounds []float64
	for i := 0; i < 51; i++ {
		t := time.Now()
		if _, err := plan.New(plan.Options{Workers: sweepWorkers, CacheDir: cacheDir}); err != nil {
			return nil, err
		}
		rounds = append(rounds, secs(time.Since(t)))
	}
	out.e2e["setup_s"] = median(rounds)

	var passMS, tracedMS, plainMS, selfS, renderMS []float64
	var warmPlan *plan.Stats
	for pass := 0; ; pass++ {
		if pass >= 200 && time.Since(start).Seconds() >= e.seconds {
			break
		}
		traced := tr != nil && pass%2 == 0
		tr.SetOn(traced)
		id := tr.ID()
		t0 := time.Now()
		warm, render, st, err := sweepPass(gens, cacheDir, hook, tr, id)
		if err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		tr.SetOn(true)
		tr.Add(Span{ID: id, Parent: root, Name: passSpanName(traced, "exp.warm_pass"), Start: tr.At(t0), End: tr.At(t0.Add(wall))})
		passMS = append(passMS, ms(wall))
		if tr != nil {
			if traced {
				tracedMS = append(tracedMS, ms(wall))
			} else {
				plainMS = append(plainMS, ms(wall))
			}
		}
		selfS = append(selfS, secs(wall-render))
		renderMS = append(renderMS, ms(render))
		for g, b := range warm {
			out.attempted++
			if !bytes.Equal(b, cold[g]) {
				out.fail("figures-slice: warm pass %d renders fig %s differently from the cold pass", pass, g)
			}
		}
		out.attempted++
		if st.Simulated != 0 {
			out.fail("figures-slice: warm pass %d simulated %d jobs against a warm cache", pass, st.Simulated)
		}
		if warmPlan == nil {
			warmPlan = &st
			continue
		}
		out.attempted++
		if st != *warmPlan {
			out.fail("figures-slice: warm pass %d planner counts %+v differ from the first warm pass %+v", pass, st, *warmPlan)
		}
	}
	end := time.Now()
	tr.Add(Span{ID: root, Name: "figures.window", Start: tr.At(start), End: tr.At(end)})
	got.WarmPlan = *warmPlan

	out.attempted++
	if got != want {
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		out.fail("figures-slice: exact work counts %s differ from the reference %s", gb, wb)
	}

	out.e2e["sweep_cold_s"] = secs(coldWall)
	out.e2e["sim_flit_hops_per_s"] = float64(got.Cold.FlitHops) / busy.Seconds()
	out.e2e["job_p50_ms"], _ = percentile(passMS, 50)
	p90, ok := percentile(passMS, 90)
	if !ok {
		out.fail("figures-slice: only %d warm passes, too few for a p90", len(passMS))
	}
	out.layer["job_p90_ms"] = p90
	out.e2e["jobs_per_s"] = 1000 / median(passMS)

	out.layer["exp.sim_busy_s"] = busy.Seconds()
	out.layer["runner.idle_s"] = sweepWorkers*coldWall.Seconds() - busy.Seconds()
	out.layer["plan.self_s"] = median(selfS)
	out.layer["exp.render_ms"] = median(renderMS)
	got.Cold.into(out.layer)
	out.layer["plan.jobs"] = float64(got.ColdPlan.Jobs)
	out.layer["plan.simulated"] = float64(got.ColdPlan.Simulated)
	out.layer["plan.reused"] = float64(got.ColdPlan.Reused())
	out.layer["plan.reuse_ratio"] = float64(got.ColdPlan.Reused()) / float64(got.ColdPlan.Jobs)
	out.layer["plan.store_hits"] = float64(got.WarmPlan.StoreHits)
	if len(tracedMS) > 0 && len(plainMS) > 0 {
		out.layer["trace.overhead_ratio"] = median(tracedMS) / median(plainMS)
	}
	// Measured last: the per-pass samples above are no longer referenced,
	// so the benchmark's own bookkeeping, whose size follows the number
	// of passes and so the host's speed, is not counted as the program's.
	out.e2e["retained_heap_mb"] = retainedHeapMB()
	return out, nil
}

func loadFigureCounts() (figureCounts, error) {
	var c figureCounts
	b, err := os.ReadFile(figuresCountsPath)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("%s: %w", figuresCountsPath, err)
	}
	return c, nil
}

// figureReferenceCounts measures figures-slice's exact counts with one
// cold and one warm pass.
func figureReferenceCounts(dir string) (figureCounts, error) {
	hook := &runHook{}
	gens := sliceGenerators()
	_, _, cold, err := sweepPass(gens, dir, hook, nil, 0)
	if err != nil {
		return figureCounts{}, err
	}
	_, _, warm, err := sweepPass(gens, dir, &runHook{}, nil, 0)
	if err != nil {
		return figureCounts{}, err
	}
	return figureCounts{Cold: hook.counts, ColdRuns: hook.runs, ColdPlan: cold, WarmPlan: warm}, nil
}
