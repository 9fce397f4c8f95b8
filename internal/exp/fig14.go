package exp

import (
	"context"
	"fmt"

	"seec"
	"seec/internal/plan"
)

// appVariant is one scheme configuration for the application studies.
type appVariant struct {
	label   string
	scheme  seec.Scheme
	routing seec.Routing
	vnets   int // 0 = scheme default
	vcs     int // per vnet
}

// fig14Variants reproduces Fig. 14's lineup on a 4x4 mesh: six-VNet
// baselines at 2 VCs/VNet, SEEC/mSEEC in iso-VC-VNet form (1 VNet x
// 2 VCs — 1/6th the buffers) and iso-hardware form (1 VNet x 12 VCs —
// same total buffers as the baselines).
func fig14Variants() []appVariant {
	return []appVariant{
		{"xy (6VN)", seec.SchemeXY, seec.RoutingXY, 0, 2},
		{"west-first (6VN)", seec.SchemeWestFirst, seec.RoutingWestFirst, 0, 2},
		{"tfc (6VN)", seec.SchemeTFC, seec.RoutingWestFirst, 0, 2},
		{"escVC (6+1VC)", seec.SchemeEscape, seec.RoutingAdaptive, 1, 7},
		{"spin (6VN)", seec.SchemeSPIN, seec.RoutingAdaptive, 0, 2},
		{"swap (6VN)", seec.SchemeSWAP, seec.RoutingAdaptive, 0, 2},
		{"drain (1VN)", seec.SchemeDRAIN, seec.RoutingAdaptive, 1, 2},
		{"seec iso-VC (1VNx2VC)", seec.SchemeSEEC, seec.RoutingAdaptive, 1, 2},
		{"mseec iso-VC (1VNx2VC)", seec.SchemeMSEEC, seec.RoutingAdaptive, 1, 2},
		{"seec iso-HW (1VNx12VC)", seec.SchemeSEEC, seec.RoutingAdaptive, 1, 12},
		{"mseec iso-HW (1VNx12VC)", seec.SchemeMSEEC, seec.RoutingAdaptive, 1, 12},
	}
}

// fig15Variants adds the SEEC routing-variant rows of Fig. 15
// (SEEC-XY, SEEC with escape-VC-style restriction) to the lineup.
func fig15Variants() []appVariant {
	vs := fig14Variants()
	vs = append(vs,
		appVariant{"seec-xy (1VNx2VC)", seec.SchemeSEEC, seec.RoutingXY, 1, 2},
	)
	return vs
}

// appConfig lowers a variant to a Config for a 4x4 mesh (Table 4's
// full-system topology).
func appConfig(v appVariant) seec.Config {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Scheme = v.scheme
	cfg.Routing = v.routing
	cfg.VNets = v.vnets
	cfg.VCsPerVNet = v.vcs
	return cfg
}

// appRun is one (application, variant) measurement.
type appRun struct {
	res seec.AppResult
	err error
}

// appResults fans the apps x variants grid out on the planner's pool,
// returning results in row-major (app, variant) order. Each run's seed
// derives from its variant coordinates plus the application name.
func appResults(s Scale, apps []string, vs []appVariant) []appRun {
	return plan.Map(context.Background(), s.Planner, len(apps)*len(vs), func(ctx context.Context, i int) (appRun, error) {
		app, v := apps[i/len(vs)], vs[i%len(vs)]
		cfg := appConfig(v)
		cfg.Seed = cfg.SweepSeed(app)
		res, err := s.runApplication(ctx, cfg, app, s.AppTxns, s.MaxAppCycles)
		return appRun{res: res, err: err}, err
	})
}

// Fig14 regenerates the application study: average packet latency and
// runtime normalized to XY, per application.
func Fig14(s Scale) *Table {
	s = s.resolve()
	t := &Table{
		ID:     "fig14",
		Title:  "Applications on 4x4 mesh: avg packet latency (cycles) and runtime normalized to XY",
		Header: []string{"app", "metric"},
	}
	vs := fig14Variants()
	for _, v := range vs {
		t.Header = append(t.Header, v.label)
	}
	results := appResults(s, s.Apps, vs)
	for ai, app := range s.Apps {
		lat := []any{app, "avg-lat"}
		run := []any{app, "runtime"}
		baseRuntime := int64(0)
		for i := range vs {
			r := results[ai*len(vs)+i]
			if r.err != nil || r.res.Completed < s.AppTxns {
				lat = append(lat, "err")
				run = append(run, "err")
				continue
			}
			if i == 0 {
				baseRuntime = r.res.Runtime
			}
			lat = append(lat, fmt.Sprintf("%.1f", r.res.AvgLatency))
			if baseRuntime > 0 {
				run = append(run, fmt.Sprintf("%.3f", float64(r.res.Runtime)/float64(baseRuntime)))
			} else {
				run = append(run, "-")
			}
		}
		t.AddRow(lat...)
		t.AddRow(run...)
	}
	t.Notes = append(t.Notes,
		"iso-VC-VNet SEEC uses 1/6th the baseline buffers; iso-HW matches total VCs (12)",
		"paper: iso-HW mSEEC ~40% lower latency than priors; runtime ~5% better on average")
	return t
}

// Fig15 regenerates the tail-latency study: maximum packet latency per
// application (log scale in the paper), including SEEC-XY.
func Fig15(s Scale) *Table {
	s = s.resolve()
	t := &Table{
		ID:     "fig15",
		Title:  "Applications on 4x4 mesh: max packet latency (cycles)",
		Header: []string{"app"},
	}
	vs := fig15Variants()
	for _, v := range vs {
		t.Header = append(t.Header, v.label)
	}
	results := appResults(s, s.Apps, vs)
	for ai, app := range s.Apps {
		row := []any{app}
		for i := range vs {
			r := results[ai*len(vs)+i]
			if r.err != nil || r.res.Completed < s.AppTxns {
				row = append(row, "err")
				continue
			}
			row = append(row, fmt.Sprint(r.res.MaxLatency))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: SPIN an order of magnitude worse (probe priority), DRAIN worst overall (periodic misrouting), SEEC-XY an order of magnitude better")
	return t
}
