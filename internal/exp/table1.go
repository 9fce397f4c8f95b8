package exp

import (
	"context"

	"seec"
	"seec/internal/plan"
)

// Table1 regenerates the paper's qualitative comparison of
// deadlock-freedom mechanisms — but empirically: each property is
// verified by running the scheme rather than asserted. "Full path
// diversity" and "no extra buffers" come from the configuration each
// scheme needs; "no misroute" is measured from delivered hop counts;
// "routing deadlock freedom" means surviving a saturated
// deadlock-prone workload; "protocol deadlock freedom" means
// completing a coherence workload without per-class virtual networks.
func Table1(s Scale) *Table {
	s = s.resolve()
	t := &Table{
		ID:    "table1",
		Title: "Qualitative comparison, verified empirically (Y/N as measured)",
		Header: []string{"scheme", "class", "full path div.", "no detect",
			"no misroute", "no extra buffers", "routing DL-free", "protocol DL-free (1 VNet)"},
	}
	type entry struct {
		scheme   seec.Scheme
		class    string // P/R/S as in the paper
		fullDiv  bool   // uses fully-adaptive routing
		noDetect bool   // no runtime deadlock detection
		noExtra  bool   // no extra VCs/buffers beyond 1 VC
	}
	entries := []entry{
		{seec.SchemeXY, "P", false, true, true},
		{seec.SchemeWestFirst, "P", false, true, true},
		{seec.SchemeEscape, "P", false, true, false}, // diversity limited in escape VC; needs the extra escape VC
		{seec.SchemeMinBD, "P", false, true, true},   // deflection cannot control paths under load
		{seec.SchemeSPIN, "R", true, false, true},
		{seec.SchemeSWAP, "S", true, true, true},
		{seec.SchemeDRAIN, "S", true, true, true},
		{seec.SchemeSEEC, "S", true, true, true},
		{seec.SchemeMSEEC, "S", true, true, true},
	}
	// Three independent measurements per scheme; fan the whole grid out.
	measures := []func(context.Context, seec.Scheme, Scale) bool{
		measureNoMisroute, measureRoutingDLFree, measureProtocolDLFree}
	verdicts := plan.Map(context.Background(), s.Planner, len(entries)*len(measures), func(ctx context.Context, i int) (bool, error) {
		return measures[i%len(measures)](ctx, entries[i/len(measures)].scheme, s), nil
	})
	for i, e := range entries {
		noMis, routingFree, protoFree := verdicts[3*i], verdicts[3*i+1], verdicts[3*i+2]
		t.AddRow(string(e.scheme), e.class, yn(e.fullDiv), yn(e.noDetect),
			yn(noMis), yn(e.noExtra), yn(routingFree), yn(protoFree))
	}
	t.Notes = append(t.Notes,
		"paper Table 1: SEEC is the only scheme with Y in every column",
		"protocol DL-free is measured with all six message classes sharing one VNet")
	return t
}

func yn(b bool) string {
	if b {
		return "Y"
	}
	return "N"
}

// measureNoMisroute runs a saturated workload and checks whether any
// delivered packet exceeded its minimal hop count.
func measureNoMisroute(ctx context.Context, scheme seec.Scheme, s Scale) bool {
	cfg := synthCfg(scheme, 4, 2, "uniform_random", s.SimCycles)
	cfg.InjectionRate = 0.30
	cfg.Seed = cfg.SweepSeed()
	res, err := s.runSynthetic(ctx, cfg)
	if err != nil {
		return false
	}
	return res.MisrouteHops == 0
}

// measureRoutingDLFree drives the scheme's own routing configuration
// far past saturation and checks for liveness. The verdict is a
// deterministic function of the config, so it memoizes through the
// planner under a measurement key; a cancelled probe returns an error
// from the compute and is never cached (plan.Memoize's contract).
func measureRoutingDLFree(ctx context.Context, scheme seec.Scheme, s Scale) bool {
	cfg := synthCfg(scheme, 4, 2, "uniform_random", s.SimCycles)
	cfg.InjectionRate = 0.40
	cfg.Seed = cfg.SweepSeed()
	ok, err := plan.Memoize(ctx, s.Planner, plan.MeasKey("routing-dl-free/stall4000", cfg),
		func(ctx context.Context) (bool, error) {
			sim, err := seec.NewSim(cfg)
			if err != nil {
				return false, nil // deterministic config rejection: a cacheable N
			}
			for sim.Cycle() < cfg.Warmup+s.SimCycles {
				if sim.Cycle()&1023 == 0 && ctx.Err() != nil {
					return false, ctx.Err()
				}
				sim.Step()
				if sim.Stalled(4000) {
					return false, nil
				}
			}
			return true, nil
		})
	return ok && err == nil
}

// measureProtocolDLFree collapses the six message classes into one
// VNet and checks the workload completes. Deflection networks are
// protocol-deadlock-free by construction but run synthetic-only in
// this repo (as in the paper); they inherit a Y from the bufferless
// argument.
func measureProtocolDLFree(ctx context.Context, scheme seec.Scheme, s Scale) bool {
	switch scheme {
	case seec.SchemeMinBD, seec.SchemeCHIPPER:
		return true
	}
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Scheme = scheme
	cfg.VNets = 1
	cfg.VCsPerVNet = 2
	if scheme == seec.SchemeEscape {
		cfg.VCsPerVNet = 7
	}
	txns := s.AppTxns
	if txns < 4000 {
		txns = 4000
	}
	cfg.Seed = cfg.SweepSeed("stress")
	res, err := s.runApplication(ctx, cfg, "stress", txns, s.MaxAppCycles)
	if err != nil {
		return false
	}
	return res.Completed >= txns && !res.Stalled
}
