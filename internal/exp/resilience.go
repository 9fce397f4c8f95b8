package exp

import (
	"fmt"

	"seec"
)

// resilienceRates is the transient-link-fault sweep: per-flit, per-link
// glitch probabilities from fault-free up to one fault per ~200 flit
// traversals. Zero means the fault layer is not attached at all, so the
// first row doubles as the golden baseline.
var resilienceRates = []float64{0, 1e-4, 5e-4, 1e-3, 5e-3}

// resilienceSchemes is the lineup for the fault study: the paper's
// escape-express schemes plus the subactive baselines that share the
// credit-flow NIC (deflection schemes have no NIC retry buffer to
// retransmit from, so they sit this one out).
func resilienceSchemes() []seec.Scheme {
	return []seec.Scheme{seec.SchemeSEEC, seec.SchemeMSEEC,
		seec.SchemeSPIN, seec.SchemeSWAP, seec.SchemeDRAIN}
}

// Resilience measures graceful degradation under deterministic fault
// injection: an 8x8 mesh at a moderate load (rate 0.10, uniform random,
// 4 VCs) with transient link glitches at increasing rates. Every
// damaged packet is discarded at its destination NIC and retransmitted
// end-to-end, so the delivered fraction stays near 1 while average
// latency absorbs the retry round-trips; the table reports both, plus
// the retransmission count, per scheme. The injector's RNG stream
// derives from the run seed and the fault spec, so the whole table is
// reproducible cell-by-cell.
func Resilience(s Scale) *Table {
	s = s.resolve()
	schemes := resilienceSchemes()
	t := &Table{
		ID:    "resilience",
		Title: "Delivery and latency vs transient link-fault rate — 8x8, uniform random, rate 0.10, 4 VCs",
	}
	t.Header = append(t.Header, "fault rate")
	for _, sc := range schemes {
		t.Header = append(t.Header, string(sc)+" dlv", string(sc)+" lat", string(sc)+" retx")
	}
	type cell struct {
		dlv, lat, retx string
	}
	cfgs := make([]seec.Config, 0, len(resilienceRates)*len(schemes))
	for _, rate := range resilienceRates {
		for _, sc := range schemes {
			cfg := synthCfg(sc, 8, 4, "uniform_random", s.SimCycles)
			cfg.InjectionRate = 0.10
			if rate > 0 {
				cfg.Faults = fmt.Sprintf("link:%g", rate)
			}
			cfgs = append(cfgs, cfg)
		}
	}
	vals := simCells(s, cfgs, func(_ int, res seec.Result, err error) cell {
		if err != nil {
			return cell{"err", "err", "err"}
		}
		dlv := "-"
		if res.InjectedPackets > 0 {
			dlv = fmt.Sprintf("%.4f", float64(res.ReceivedPackets)/float64(res.InjectedPackets))
		}
		return cell{dlv, latencyCell(res, nil), fmt.Sprint(res.Retransmits)}
	})
	i := 0
	for _, rate := range resilienceRates {
		row := []any{fmt.Sprintf("%g", rate)}
		for range schemes {
			row = append(row, vals[i].dlv, vals[i].lat, vals[i].retx)
			i++
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"dlv = received/injected at run end (in-flight retransmissions not yet counted; warmup boundary effects can push it slightly above 1)",
		"retx = end-to-end retries issued by timeout or NACK",
		"damaged flits are detected by NIC checksum, discarded at the destination and retransmitted from the source retry buffer")
	return t
}
