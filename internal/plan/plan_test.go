package plan

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"seec"
	"seec/internal/serve"
)

// directRun is the test RunFunc: plain uncached execution.
func directRun(ctx context.Context, cfg seec.Config) (seec.Result, error) {
	return seec.RunSyntheticCtx(ctx, cfg)
}

// smallCfg is a fast 4x4 point for cache round-trip tests.
func smallCfg(rate float64) seec.Config {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Warmup = 200
	cfg.SimCycles = 400
	cfg.InjectionRate = rate
	return cfg
}

// TestPlannerKeyParity pins the planner's job addressing to the seecd
// store's: a sweep point planned by a driver and the same point
// submitted to the gateway must share one cache entry. The golden
// values are copied from serve's TestCacheKeyGolden ("sweep derives
// per-point seeds"), so a drift on either side breaks one of the two
// tests by name.
func TestPlannerKeyParity(t *testing.T) {
	// Already-derived configs (gateway lowering) must address exactly
	// serve.CacheKey.
	for _, spec := range []string{
		`{}`,
		`{"rate":0.05,"seed":7}`,
		`{"rates":[0.02,0.08],"seed":3}`,
		`{"scheme":"chipper","rows":4,"cols":4,"warmup":500,"sim_cycles":5000,"rate":0.1}`,
	} {
		sp, err := serve.DecodeJobSpec([]byte(spec))
		if err != nil {
			t.Fatalf("decode %s: %v", spec, err)
		}
		for i, cfg := range sp.Configs() {
			if got, want := Key(Job{Cfg: cfg}), serve.CacheKey(cfg); got != want {
				t.Errorf("spec %s run %d: Key %s != serve.CacheKey %s", spec, i, got, want)
			}
		}
	}

	// Planner-side derivation parity: generators hand over coordinate
	// configs with DeriveSeed set; the derived key must equal the one
	// the gateway computes after its own SweepSeed derivation.
	sp, err := serve.DecodeJobSpec([]byte(`{"rates":[0.02,0.08],"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	lowered := sp.Configs()
	golden := []string{
		"6feb708f3271e0ddbe806698bf6b78b161408aeec33608a56e0d90b1cfe7bf83",
		"3763b07d7724cb6f3a0475e02042b96dff7fec5b4db55e84bbcf30d725c13497",
	}
	if len(lowered) != len(golden) {
		t.Fatalf("lowered to %d runs, want %d", len(lowered), len(golden))
	}
	for i, rate := range []float64{0.02, 0.08} {
		c := seec.DefaultConfig()
		c.Seed = 3
		c.InjectionRate = rate
		got := Key(Job{Cfg: c, DeriveSeed: true})
		if got != golden[i] {
			t.Errorf("rate %g: planner key %s != golden %s", rate, got, golden[i])
		}
		if want := serve.CacheKey(lowered[i]); got != want {
			t.Errorf("rate %g: planner key %s != gateway key %s", rate, got, want)
		}
	}
}

// TestForkKeySpace pins the fork key space apart from the ordinary
// result space: a warmup-shared member's bytes embody the shared
// sampling plan, so its key must never alias an independent run of the
// same echoed config — and distinct rates must never collide.
func TestForkKeySpace(t *testing.T) {
	base := smallCfg(0.15)
	base.Seed = base.SweepSeed("warmup-share")
	indep := smallCfg(0.05)
	indep.Seed = indep.SweepSeed()
	fk := forkKey(base, 0.05)
	if !serve.ValidKey(fk) {
		t.Fatalf("forkKey not a valid store key: %s", fk)
	}
	if fk == serve.CacheKey(indep) {
		t.Error("fork key aliases the independent result key")
	}
	if fk == forkKey(base, 0.15) {
		t.Error("distinct rates share a fork key")
	}
}

// TestPlannerRunDedupAndWarmStore: one batch with an in-batch
// duplicate simulates each unique point once; a fresh planner over the
// same cache directory resolves the whole batch with zero simulations
// and identical results.
func TestPlannerRunDedupAndWarmStore(t *testing.T) {
	dir := t.TempDir()
	jobs := []Job{
		{Cfg: smallCfg(0.05), DeriveSeed: true},
		{Cfg: smallCfg(0.10), DeriveSeed: true},
		{Cfg: smallCfg(0.05), DeriveSeed: true}, // duplicate of job 0
	}
	p1, err := New(Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	outs1 := p1.Run(context.Background(), jobs, directRun)
	for i, o := range outs1 {
		if !o.Done || o.Err != nil {
			t.Fatalf("job %d: done=%v err=%v", i, o.Done, o.Err)
		}
	}
	if !reflect.DeepEqual(outs1[0].Result, outs1[2].Result) {
		t.Error("duplicate jobs resolved to different results")
	}
	st := p1.Stats()
	if st.Deduped != 1 || st.Simulated != 2 {
		t.Errorf("cold stats: deduped=%d simulated=%d, want 1/2", st.Deduped, st.Simulated)
	}

	p2, err := New(Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	outs2 := p2.Run(context.Background(), jobs, directRun)
	if !reflect.DeepEqual(outs1, outs2) {
		t.Error("warm-store outcomes differ from cold outcomes")
	}
	st2 := p2.Stats()
	if st2.Simulated != 0 {
		t.Errorf("warm run simulated %d jobs, want 0", st2.Simulated)
	}
	if st2.StoreHits == 0 {
		t.Error("warm run recorded no store hits")
	}
}

// TestCorruptBlobQuarantinedAndResimulated: a corrupt store blob hit
// during a planner run is quarantined and transparently re-simulated —
// never decoded, never served.
func TestCorruptBlobQuarantinedAndResimulated(t *testing.T) {
	dir := t.TempDir()
	job := Job{Cfg: smallCfg(0.10), DeriveSeed: true}
	key := Key(job)

	p1, err := New(Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := p1.Run(context.Background(), []Job{job}, directRun)[0]
	if !want.Done || want.Err != nil {
		t.Fatalf("seed run: %+v", want)
	}

	blob := filepath.Join(dir, "objects", key[:2], key)
	if err := os.WriteFile(blob, []byte("SEECRES1 00000000\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	p2, err := New(Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got := p2.Run(context.Background(), []Job{job}, directRun)[0]
	if !got.Done || got.Err != nil {
		t.Fatalf("post-corruption run: %+v", got)
	}
	if !reflect.DeepEqual(want.Result, got.Result) {
		t.Error("re-simulated result differs from the original")
	}
	st := p2.Stats()
	if st.Quarantined != 1 {
		t.Errorf("quarantined=%d, want 1", st.Quarantined)
	}
	if st.Simulated != 1 {
		t.Errorf("simulated=%d, want 1 (the corrupt point must re-simulate)", st.Simulated)
	}
	qs, err := filepath.Glob(filepath.Join(dir, "quarantine", key+".*"))
	if err != nil || len(qs) == 0 {
		t.Errorf("corrupt blob not moved to quarantine (glob err %v, %d matches)", err, len(qs))
	}

	// The repaired entry must serve cleanly now.
	p3, err := New(Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	again := p3.Run(context.Background(), []Job{job}, directRun)[0]
	if !reflect.DeepEqual(want.Result, again.Result) || p3.Stats().Simulated != 0 {
		t.Errorf("rewritten entry did not serve from cache (simulated=%d)", p3.Stats().Simulated)
	}
}

// TestMemoizeErrorNotCached: a compute error (cancellation) is
// returned but never written back, so the next call recomputes.
func TestMemoizeErrorNotCached(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := MeasKey("test-memoize", smallCfg(0.05))
	calls := 0
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Memoize(ctx, p, key, func(ctx context.Context) (int, error) {
		calls++
		return 0, ctx.Err()
	})
	if err == nil {
		t.Fatal("cancelled compute returned no error")
	}
	v, err := Memoize(context.Background(), p, key, func(context.Context) (int, error) {
		calls++
		return 42, nil
	})
	if err != nil || v != 42 || calls != 2 {
		t.Fatalf("v=%d err=%v calls=%d, want 42/nil/2", v, err, calls)
	}
	v, err = Memoize(context.Background(), p, key, func(context.Context) (int, error) {
		calls++
		return 0, nil
	})
	if err != nil || v != 42 || calls != 2 {
		t.Fatalf("cached v=%d err=%v calls=%d, want 42/nil/2", v, err, calls)
	}
}

// captureStderr runs f with os.Stderr redirected and returns what it
// wrote there.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = orig }()
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	f()
	w.Close()
	return string(<-done)
}

// TestMapSurvivesPanickingCell: one panicking cell must not abort the
// batch — its cell keeps the zero value, the rest fill in, and the
// panic is reported.
func TestMapSurvivesPanickingCell(t *testing.T) {
	p, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var vals []string
	out := captureStderr(t, func() {
		vals = Map(context.Background(), p, 6, func(_ context.Context, i int) (string, error) {
			if i == 2 {
				panic("cell exploded")
			}
			return "ok", nil
		})
	})
	for i, v := range vals {
		want := "ok"
		if i == 2 {
			want = ""
		}
		if v != want {
			t.Fatalf("vals[%d] = %q, want %q", i, v, want)
		}
	}
	if !strings.Contains(out, "plan: job 2 failed after 1 attempt(s)") || !strings.Contains(out, "cell exploded") {
		t.Errorf("panic not reported with its context:\n%s", out)
	}
}

// TestMapJobTimeout: a cell exceeding Options.JobTimeout is cancelled
// through its context and keeps its own rendered error value.
func TestMapJobTimeout(t *testing.T) {
	p, err := New(Options{Workers: 2, JobTimeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var vals []string
	captureStderr(t, func() {
		vals = Map(context.Background(), p, 3, func(ctx context.Context, i int) (string, error) {
			if i == 1 {
				<-ctx.Done()
				return "timed out", ctx.Err()
			}
			return "ok", nil
		})
	})
	if vals[0] != "ok" || vals[1] != "timed out" || vals[2] != "ok" {
		t.Fatalf("vals = %v", vals)
	}
}

// TestMapMaxFailures: a positive Options.MaxFailures trips the
// breaker; cancelled cells keep their zero value, and Map adds nothing
// to the planner's Stats.
func TestMapMaxFailures(t *testing.T) {
	p, err := New(Options{Workers: 1, MaxFailures: 2})
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	var vals []string
	captureStderr(t, func() {
		vals = Map(context.Background(), p, 50, func(_ context.Context, i int) (string, error) {
			ran++
			return "cell", errors.New("always fails")
		})
	})
	if ran >= 50 {
		t.Fatalf("breaker never tripped: %d cells ran", ran)
	}
	if vals[0] != "cell" {
		t.Fatalf("failed cell lost its rendered value: %q", vals[0])
	}
	// The tail was cancelled before running.
	if got := strings.Count(strings.Join(vals, "|"), "cell"); got != ran {
		t.Fatalf("%d rendered cells for %d runs", got, ran)
	}
	if st := p.Stats(); st != (Stats{}) {
		t.Errorf("Map changed the planner's stats: %+v", st)
	}
}

// TestRunReportsFailedJobs: Run's failures print one stderr line per
// failed job — job index (not the execution-unit index), attempt
// count, elapsed time and cause — including in-batch duplicates of a
// failed job, then the aggregate over the whole batch.
func TestRunReportsFailedJobs(t *testing.T) {
	p, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		{Cfg: smallCfg(0.05), DeriveSeed: true},
		{Cfg: smallCfg(0.30), DeriveSeed: true},
		{Cfg: smallCfg(0.10), DeriveSeed: true},
		{Cfg: smallCfg(0.30), DeriveSeed: true}, // duplicate of job 1
	}
	boom := errors.New("rate rejected")
	var outs []Outcome
	out := captureStderr(t, func() {
		outs = p.Run(context.Background(), jobs, func(ctx context.Context, cfg seec.Config) (seec.Result, error) {
			if cfg.InjectionRate == 0.30 {
				return seec.Result{}, boom
			}
			return directRun(ctx, cfg)
		})
	})
	for i, o := range outs {
		if wantErr := i == 1 || i == 3; (o.Err != nil) != wantErr || !o.Done {
			t.Errorf("job %d: done=%v err=%v", i, o.Done, o.Err)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 report lines, got:\n%s", out)
	}
	for li, job := range []string{"1", "3"} {
		prefix := "plan: job " + job + " failed after 1 attempt(s) in "
		if !strings.HasPrefix(lines[li], prefix) || !strings.HasSuffix(lines[li], ": rate rejected") {
			t.Errorf("line %d = %q, want %q...: rate rejected", li, lines[li], prefix)
		}
	}
	if lines[2] != "plan: 2/4 jobs failed" {
		t.Errorf("aggregate line = %q", lines[2])
	}
}
