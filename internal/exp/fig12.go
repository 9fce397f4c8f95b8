package exp

import (
	"fmt"

	"seec"
)

// fig12Variant is one deadlock-free NoC from the §4.4.2 deep dive.
type fig12Variant struct {
	label   string
	scheme  seec.Scheme
	routing seec.Routing
}

// fig12Variants reproduces the eight configurations of Fig. 12, all
// with 2 VCs: (i) XY, (ii) west-first, (iii) escape VC with oblivious
// random, (iv) escape VC with adaptive random, (v)-(vi) SEEC with
// oblivious/adaptive random, (vii)-(viii) mSEEC likewise.
func fig12Variants() []fig12Variant {
	return []fig12Variant{
		{"xy", seec.SchemeXY, seec.RoutingXY},
		{"west-first", seec.SchemeWestFirst, seec.RoutingWestFirst},
		{"escVC+rand", seec.SchemeEscape, seec.RoutingOblivious},
		{"escVC+adapt", seec.SchemeEscape, seec.RoutingAdaptive},
		{"seec+rand", seec.SchemeSEEC, seec.RoutingOblivious},
		{"seec+adapt", seec.SchemeSEEC, seec.RoutingAdaptive},
		{"mseec+rand", seec.SchemeMSEEC, seec.RoutingOblivious},
		{"mseec+adapt", seec.SchemeMSEEC, seec.RoutingAdaptive},
	}
}

// Fig12 regenerates the routing-algorithm comparison: latency vs
// injection rate for uniform random and transpose at 2 VCs. Both
// tables' cells fan out as one flat job list.
func Fig12(s Scale) []*Table {
	s = s.resolve()
	pats := []string{"uniform_random", "transpose"}
	vs := fig12Variants()
	var cfgs []seec.Config
	for _, pat := range pats {
		for _, rate := range s.Rates {
			for _, v := range vs {
				cfg := synthCfg(v.scheme, 8, 2, pat, s.SimCycles)
				cfg.Routing = v.routing
				cfg.InjectionRate = rate
				cfgs = append(cfgs, cfg)
			}
		}
	}
	vals := simCells(s, cfgs, func(_ int, res seec.Result, err error) string {
		return latencyCell(res, err)
	})
	var out []*Table
	i := 0
	for _, pat := range pats {
		t := &Table{
			ID:    "fig12",
			Title: fmt.Sprintf("Routing-algorithm deep dive — 8x8, %s, 2 VCs", pat),
		}
		t.Header = append(t.Header, "rate")
		for _, v := range vs {
			t.Header = append(t.Header, v.label)
		}
		for _, rate := range s.Rates {
			row := []any{fmt.Sprintf("%.2f", rate)}
			for range vs {
				row = append(row, vals[i])
				i++
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out
}

// Fig13 regenerates the VC-scaling study: SEEC and mSEEC fixed at
// 2 VCs against escape VC with 2, 4, 8 and 16 VCs on an 8x8 mesh.
// The paper's crossover: escape VC needs 8+ VCs to match SEEC/mSEEC.
func Fig13(s Scale) []*Table {
	s = s.resolve()
	pats := []string{"uniform_random", "transpose"}
	var out []*Table
	for _, pat := range pats {
		t := &Table{
			ID:    "fig13",
			Title: fmt.Sprintf("SEEC/mSEEC @2VC vs escape VC with more VCs — 8x8, %s", pat),
			Header: []string{"rate", "seec 2VC", "mseec 2VC",
				"eVC 2VC", "eVC 4VC", "eVC 8VC", "eVC 16VC"},
		}
		out = append(out, t)
	}
	// Columns: SEEC and mSEEC at 2 VCs, then escape VC at each width.
	type col struct {
		sc  seec.Scheme
		vcs int
	}
	colsOf := []col{{seec.SchemeSEEC, 2}, {seec.SchemeMSEEC, 2},
		{seec.SchemeEscape, 2}, {seec.SchemeEscape, 4},
		{seec.SchemeEscape, 8}, {seec.SchemeEscape, 16}}
	var cfgs []seec.Config
	for _, pat := range pats {
		for _, rate := range s.Rates {
			for _, c := range colsOf {
				cfg := synthCfg(c.sc, 8, c.vcs, pat, s.SimCycles)
				cfg.InjectionRate = rate
				cfgs = append(cfgs, cfg)
			}
		}
	}
	vals := simCells(s, cfgs, func(_ int, res seec.Result, err error) string {
		return latencyCell(res, err)
	})
	i := 0
	for ti := range pats {
		for _, rate := range s.Rates {
			row := []any{fmt.Sprintf("%.2f", rate)}
			for range colsOf {
				row = append(row, vals[i])
				i++
			}
			out[ti].AddRow(row...)
		}
	}
	return out
}
