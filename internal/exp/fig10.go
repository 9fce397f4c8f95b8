package exp

import (
	"fmt"

	"seec"
)

// Fig10a regenerates the FF-packet fraction versus injection rate for
// uniform random traffic on an 8x8 mesh (SEEC and mSEEC). The paper
// observes the fraction rising toward ~100% (SEEC) and ~50% (mSEEC)
// past saturation.
func Fig10a(s Scale) *Table {
	s = s.resolve()
	t := &Table{
		ID:     "fig10a",
		Title:  "FF packets received (%) vs injection rate — uniform random, 8x8",
		Header: []string{"rate", "seec %FF", "mseec %FF"},
	}
	schemes := []seec.Scheme{seec.SchemeSEEC, seec.SchemeMSEEC}
	cfgs := make([]seec.Config, 0, len(s.Rates)*len(schemes))
	for _, rate := range s.Rates {
		for _, sc := range schemes {
			cfg := synthCfg(sc, 8, 4, "uniform_random", s.SimCycles)
			cfg.InjectionRate = rate
			cfgs = append(cfgs, cfg)
		}
	}
	vals := simCells(s, cfgs, func(_ int, res seec.Result, err error) string {
		if err != nil {
			return "err"
		}
		return fmt.Sprintf("%.1f", 100*res.FFFraction)
	})
	for ri, rate := range s.Rates {
		row := []any{fmt.Sprintf("%.2f", rate)}
		for ci := range schemes {
			row = append(row, vals[ri*len(schemes)+ci])
		}
		t.AddRow(row...)
	}
	return t
}

// Fig10b regenerates the latency breakdown of FF versus regular
// packets: FF packets' cycles split into the buffered portion (before
// upgrade) and the bufferless Free-Flow portion. The paper's
// counterintuitive finding — FF packets are *slower* overall, because
// seekers select packets that were already badly blocked, while the
// bufferless portion itself is tiny — must reproduce.
func Fig10b(s Scale) *Table {
	s = s.resolve()
	t := &Table{
		ID:    "fig10b",
		Title: "Latency breakdown, FF vs regular packets — uniform random, 8x8",
		Header: []string{"scheme", "rate", "reg avg lat", "FF avg lat",
			"FF buffered part", "FF bufferless part", "%FF"},
	}
	rates := []float64{s.Rates[0], s.Rates[len(s.Rates)/2], s.Rates[len(s.Rates)-1]}
	schemes := []seec.Scheme{seec.SchemeSEEC, seec.SchemeMSEEC}
	cfgs := make([]seec.Config, 0, len(schemes)*len(rates))
	for _, sc := range schemes {
		for _, rate := range rates {
			cfg := synthCfg(sc, 8, 4, "uniform_random", s.SimCycles)
			cfg.InjectionRate = rate
			cfgs = append(cfgs, cfg)
		}
	}
	rows := simCells(s, cfgs, func(i int, res seec.Result, err error) []any {
		if err != nil {
			return nil
		}
		sc, rate := schemes[i/len(rates)], rates[i%len(rates)]
		ffLat := res.FFBufferedAvg + res.FFFreeAvg
		return []any{string(sc), fmt.Sprintf("%.2f", rate),
			fmt.Sprintf("%.1f", res.RegLatencyAvg),
			fmt.Sprintf("%.1f", ffLat),
			fmt.Sprintf("%.1f", res.FFBufferedAvg),
			fmt.Sprintf("%.1f", res.FFFreeAvg),
			fmt.Sprintf("%.1f", 100*res.FFFraction)}
	})
	for _, row := range rows {
		if row != nil {
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes, "FF packets were blocked before upgrade, so their buffered part dominates (paper §4.3)")
	return t
}

// Fig11 regenerates the average and peak network link energy,
// normalized to West-first (which never misroutes). Each scheme is
// measured at its own saturation operating point — average energy just
// below its knee, peak energy just above it, where SPIN's probe
// storms, deflection's misroutes and SWAP/DRAIN's packet movements
// engage (the paper reports peak "at saturation"). Energy is charged
// per delivered flit so schemes moving less payload are not rewarded.
// The paper ran this with one VC; in this simulator fully-adaptive
// routing at 8x8 with one VC spends the entire saturated window
// deadlocked (quiet links hide overheads rather than exposing them),
// so the minimum functional configuration — 4 VCs, the Fig. 8 setup —
// is used instead; see EXPERIMENTS.md.
func Fig11(s Scale) *Table {
	s = s.resolve()
	t := &Table{
		ID:     "fig11",
		Title:  "Network link energy normalized to west-first (8x8 uniform random, 4 VCs)",
		Header: []string{"scheme", "avg @knee", "peak @knee", "peak @overload"},
	}
	schemes := []seec.Scheme{seec.SchemeWestFirst, seec.SchemeEscape,
		seec.SchemeMinBD, seec.SchemeCHIPPER, seec.SchemeSPIN,
		seec.SchemeSWAP, seec.SchemeDRAIN, seec.SchemeSEEC}
	// All credit-flow schemes saturate near 0.10-0.11 packets/node/
	// cycle in this configuration (Fig. 9); compare raw link activity
	// at a common just-below-knee load, plus peak windowed activity at
	// that load and at overload (where detection/recovery machinery —
	// SPIN probes, DRAIN rotations — fires hardest).
	const kneeRate, overRate = 0.09, 0.14
	type pt struct {
		sc                      seec.Scheme
		avg, peakKnee, peakOver float64
		bad                     bool
	}
	// Two independent measurement points per scheme, flattened so the
	// planner (or the fallback pool) schedules all of them together.
	measRates := []float64{kneeRate, overRate}
	cfgs := make([]seec.Config, 0, len(schemes)*len(measRates))
	for _, sc := range schemes {
		for _, rate := range measRates {
			cfg := synthCfg(sc, 8, 4, "uniform_random", s.SimCycles)
			cfg.InjectionRate = rate
			cfgs = append(cfgs, cfg)
		}
	}
	type meas struct {
		res seec.Result
		ok  bool
	}
	ms := simCells(s, cfgs, func(_ int, res seec.Result, err error) meas {
		return meas{res: res, ok: err == nil}
	})
	pts := make([]pt, len(schemes))
	for si, sc := range schemes {
		knee, over := ms[2*si], ms[2*si+1]
		p := pt{sc: sc, bad: !knee.ok || !over.ok}
		if !p.bad {
			p.avg, p.peakKnee = knee.res.AvgLinkEnergy, knee.res.PeakLinkEnergy
			p.peakOver = over.res.PeakLinkEnergy
		}
		pts[si] = p
	}
	var base pt
	for _, p := range pts {
		if p.sc == seec.SchemeWestFirst && !p.bad {
			base = p
		}
	}
	for _, p := range pts {
		if p.bad || base.avg == 0 {
			t.AddRow(string(p.sc), "err", "err", "err")
			continue
		}
		t.AddRow(string(p.sc),
			fmt.Sprintf("%.2f", p.avg/base.avg),
			fmt.Sprintf("%.2f", p.peakKnee/base.peakKnee),
			fmt.Sprintf("%.2f", p.peakOver/base.peakOver))
	}
	t.Notes = append(t.Notes,
		"activity model: data-flit hops + SPIN probe hops + seeker/lookahead sideband bits/128",
		"paper: SPIN 3.7x avg / up to 9.7x peak; deflection +25-74%; SWAP/DRAIN +5-14%; SEEC <1%")
	return t
}
