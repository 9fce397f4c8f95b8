package exp

import (
	"os"
	"path/filepath"
	"testing"

	"seec/internal/plan"
)

// withPlanner attaches a fresh planner matching the scale's knobs, the
// way cmd/figures wires one up.
func withPlanner(t *testing.T, s Scale, o plan.Options) (Scale, *plan.Planner) {
	t.Helper()
	o.Workers = s.Workers
	o.Shards = s.Shards
	p, err := plan.New(o)
	if err != nil {
		t.Fatal(err)
	}
	s.Planner = p
	return s, p
}

// direct renders a generator through a NoReuse planner: every job
// simulates, nothing is deduplicated or cached — the reference the
// reuse layers must reproduce byte for byte.
func direct[R any](t *testing.T, s Scale, gen func(Scale) R) R {
	t.Helper()
	ds, _ := withPlanner(t, s, plan.Options{NoReuse: true})
	return gen(ds)
}

// TestPlannerFig8Identity pins the planner's core contract: a figure
// rendered through the reuse-aware schedule (dedup, memoization,
// cost-sorted dispatch) is byte-identical to a NoReuse render — and a
// second render against the planner's warm in-process cache does zero
// simulations while still rendering the same bytes.
func TestPlannerFig8Identity(t *testing.T) {
	want := renderAll(direct(t, detScale(4), Fig8))
	s, p := withPlanner(t, detScale(4), plan.Options{})
	if got := renderAll(Fig8(s)); got != want {
		t.Errorf("planned Fig8 differs from NoReuse:\n%s", diffLine(want, got))
	}
	cold := p.Stats().Simulated
	if cold == 0 {
		t.Fatal("cold planned render simulated nothing")
	}
	if got := renderAll(Fig8(s)); got != want {
		t.Errorf("warm planned Fig8 differs from NoReuse:\n%s", diffLine(want, got))
	}
	if warm := p.Stats().Simulated; warm != cold {
		t.Errorf("warm render simulated %d new jobs, want 0", warm-cold)
	}
}

// TestPlannerFig12Identity covers a second generator shape (routing
// variants, two tables from one flat batch) against the same contract.
func TestPlannerFig12Identity(t *testing.T) {
	want := renderAll(direct(t, detScale(4), Fig12))
	s, _ := withPlanner(t, detScale(4), plan.Options{})
	if got := renderAll(Fig12(s)); got != want {
		t.Errorf("planned Fig12 differs from NoReuse:\n%s", diffLine(want, got))
	}
}

// TestPlannerTable3Identity covers the derived-measurement path
// (plan.Memoize under a measurement key): the drain study must render
// identically with reuse on and off, and a warm planner must not
// re-run the drains.
func TestPlannerTable3Identity(t *testing.T) {
	want := renderAll([]*Table{direct(t, detScale(4), Table3)})
	s, p := withPlanner(t, detScale(4), plan.Options{})
	if got := renderAll([]*Table{Table3(s)}); got != want {
		t.Errorf("planned Table3 differs from NoReuse:\n%s", diffLine(want, got))
	}
	cold := p.Stats().Simulated
	if got := renderAll([]*Table{Table3(s)}); got != want {
		t.Errorf("warm planned Table3 differs from NoReuse:\n%s", diffLine(want, got))
	}
	if warm := p.Stats().Simulated; warm != cold {
		t.Errorf("warm Table3 simulated %d new measurements, want 0", warm-cold)
	}
}

// TestPlannerWarmupShareMatchesLegacy pins the planner's family
// grouping to the original Fig-8 warmup-fork convention byte for byte:
// each (mesh, pattern, scheme) curve warms at its middle rate under
// SweepSeed("warmup-share") and forks its rate points in rate order.
// The golden was rendered by that original curve-per-cell path before
// it was deleted; the deflection scheme in the lineup (MinBD) pins the
// independent-run fallback too.
func TestPlannerWarmupShareMatchesLegacy(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "fig8_warmup_share_legacy.txt"))
	if err != nil {
		t.Fatal(err)
	}
	s, p := withPlanner(t, detScale(4), plan.Options{WarmupShare: true})
	if got := renderAll(Fig8(s)); got != string(want) {
		t.Errorf("planned warmup-share differs from the legacy golden:\n%s", diffLine(string(want), got))
	}
	st := p.Stats()
	if st.WarmupFamilies == 0 || st.WarmupForks == 0 {
		t.Errorf("planner shared nothing: families=%d forks=%d", st.WarmupFamilies, st.WarmupForks)
	}
	if st.WarmupCyclesSaved == 0 {
		t.Errorf("planner reports no warmup cycles saved")
	}
}
