package exp

import (
	"context"

	"seec"
	"seec/internal/plan"
)

// simCells runs a pure synthetic-simulation grid through the scale's
// planner: the generator hands over one Config per cell — seed left
// underived; the planner derives it via Config.SweepSeed(), the sweep
// convention — plus a render function mapping each cell's (Result,
// error) to its table value. The whole grid compiles into one
// reuse-aware schedule: in-batch dedup, cache probes, warmup-prefix
// families and cost-sorted dispatch, all byte-identity-preserving
// except the opt-in warmup sharing. Cells that never completed
// (breaker, context, panic) render as zero values; the planner reports
// every failure on stderr.
func simCells[T any](s Scale, cfgs []seec.Config, render func(i int, res seec.Result, err error) T) []T {
	jobs := make([]plan.Job, len(cfgs))
	for i, c := range cfgs {
		jobs[i] = plan.Job{Cfg: c, DeriveSeed: true}
	}
	outs := s.Planner.Run(context.Background(), jobs, s.runSyntheticDirect)
	out := make([]T, len(cfgs))
	for i, o := range outs {
		if o.Done {
			out[i] = render(i, o.Result, o.Err)
		}
	}
	return out
}
