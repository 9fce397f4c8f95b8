package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"seec"
	"seec/internal/serve"
)

// defaultSeed is the simulator's default seed (seec.DefaultConfig):
// the core-mix reference digests are taken at it.
const defaultSeed = 1

const coreDigestsPath = "perfbench/data/coremix_digests.json"

// cell is one core-mix simulation: a scheme at a load on a k x k mesh.
type cell struct {
	layer   string // "noc" (credit flow) or "deflect"
	scheme  seec.Scheme
	load    string // low, mid, sat
	rate    float64
	k       int
	shards  int
	warmup  int64
	measure int64
}

// name is the cell's key in metric names and the digest table.
func (c cell) name() string {
	if c.k != 8 {
		return fmt.Sprintf("%s.%dx%d.k%d", c.scheme, c.k, c.k, max(c.shards, 1))
	}
	return fmt.Sprintf("%s.%s", c.scheme, c.load)
}

func (c cell) config(seed uint64) seec.Config {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = c.k, c.k
	cfg.Scheme = c.scheme
	cfg.InjectionRate = c.rate
	cfg.Warmup, cfg.SimCycles = c.warmup, c.measure
	cfg.Seed = seed
	cfg.Shards = c.shards
	return cfg
}

// coreGrid is the core-mix scheme x load grid on an 8x8 uniform-random
// mesh, a saturated point for SEEC and escape VCs, and one 16x16 SEEC
// run executed serially and with two shards. Cycle counts shrink as the
// load (and so the host cost per cycle) grows, so that cells cost the
// same order of host time and a pass's latency distribution has no
// sparse gaps for its percentiles to jump across.
func coreGrid() []cell {
	var g []cell
	for _, sc := range []seec.Scheme{seec.SchemeXY, seec.SchemeEscape, seec.SchemeSPIN,
		seec.SchemeSWAP, seec.SchemeDRAIN, seec.SchemeSEEC, seec.SchemeMSEEC,
		seec.SchemeCHIPPER, seec.SchemeMinBD} {
		layer := "noc"
		if sc == seec.SchemeCHIPPER || sc == seec.SchemeMinBD {
			layer = "deflect"
		}
		g = append(g,
			cell{layer: layer, scheme: sc, load: "low", rate: 0.02, k: 8, warmup: 500, measure: 6000},
			cell{layer: layer, scheme: sc, load: "mid", rate: 0.10, k: 8, warmup: 500, measure: 2000})
	}
	for _, sc := range []seec.Scheme{seec.SchemeSEEC, seec.SchemeEscape} {
		g = append(g, cell{layer: "noc", scheme: sc, load: "sat", rate: 0.30, k: 8, warmup: 500, measure: 1000})
	}
	for _, k := range []int{1, 2} {
		g = append(g, cell{layer: "noc", scheme: seec.SchemeSEEC, load: "mid", rate: 0.04, k: 16,
			shards: k, warmup: 300, measure: 700})
	}
	return g
}

// workCounts are the host-independent work counters of a set of runs.
// A speed-only change must leave every one of them unchanged.
type workCounts struct {
	FlitHops     int64 `json:"noc.flit_hops"`
	Cycles       int64 `json:"noc.cycles"`
	BufferWrites int64 `json:"noc.buffer_writes"`
	SidebandBits int64 `json:"express.sideband_bits"`
	FFUpgrades   int64 `json:"express.ff_upgrades"`
	CkptBytes    int64 `json:"checkpoint.bytes"`
}

func (w *workCounts) addSim(s *seec.Sim) {
	e := s.Energy()
	w.FlitHops += e.DataHops
	w.Cycles += s.Cycle()
	w.BufferWrites += e.BufferWrites
	w.SidebandBits += e.SidebandBits
	w.FFUpgrades += s.FFUpgrades()
}

func (w workCounts) into(m map[string]float64) {
	m["noc.flit_hops"] = float64(w.FlitHops)
	m["noc.cycles"] = float64(w.Cycles)
	m["noc.buffer_writes"] = float64(w.BufferWrites)
	m["express.sideband_bits"] = float64(w.SidebandBits)
	m["express.ff_upgrades"] = float64(w.FFUpgrades)
	if w.CkptBytes > 0 {
		m["checkpoint.bytes"] = float64(w.CkptBytes)
	}
}

// cellRun is one executed cell's timings, counts and result digest.
type cellRun struct {
	newSim, warm, save, restore, measure, snapshot, total time.Duration
	ckptBytes                                             int
	counts                                                workCounts
	digest                                                string
}

// digestResult is the content hash of a result's canonical payload,
// with the shard count cleared: sharding must not change any byte.
func digestResult(res seec.Result) string {
	res.Config.Shards = 0
	h := sha256.Sum256(serve.EncodeResult(res))
	return hex.EncodeToString(h[:8])
}

// runCell executes one cell through the public simulator API: build,
// warm up, checkpoint round trip at the warmup boundary, measure,
// snapshot, then check the network invariants and packet conservation.
func runCell(c cell, seed uint64, buf *bytes.Buffer, tr *Tracer, parent, req int64) (cellRun, error) {
	var r cellRun
	cfg := c.config(seed)
	id := tr.ID()
	t0 := time.Now()
	s, err := seec.NewSim(cfg)
	if err != nil {
		return r, err
	}
	t1 := time.Now()
	// The packets in flight just before the warmup boundary, plus those
	// created after it, minus those received after it, are the packets
	// in flight at the end: exact conservation.
	s.Run(cfg.Warmup - 1)
	t2 := time.Now()
	before := s.InFlightPackets()
	t3, t4 := t2, t2
	if s.Net != nil { // deflection networks cannot be checkpointed
		buf.Reset()
		if err := s.SaveCheckpoint(buf); err != nil {
			s.Close()
			return r, fmt.Errorf("save checkpoint: %w", err)
		}
		r.ckptBytes = buf.Len()
		t3 = time.Now()
		s.Close()
		if s, err = seec.NewSimFromCheckpoint(cfg, buf); err != nil {
			return r, fmt.Errorf("restore checkpoint: %w", err)
		}
		t4 = time.Now()
	}
	s.Run(cfg.SimCycles + 1)
	t5 := time.Now()
	res := s.Snapshot()
	t6 := time.Now()
	r.counts.addSim(s)
	r.digest = digestResult(res)
	if s.Net != nil {
		err = s.Net.CheckInvariants()
	}
	if err == nil && int64(before)+res.InjectedPackets-res.ReceivedPackets != int64(s.InFlightPackets()) {
		err = fmt.Errorf("packet conservation: %d in flight at warmup + %d injected - %d received != %d in flight",
			before, res.InjectedPackets, res.ReceivedPackets, s.InFlightPackets())
	}
	s.Close()
	t7 := time.Now()
	r.newSim, r.warm, r.save, r.restore = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	r.measure, r.snapshot, r.total = t5.Sub(t4), t6.Sub(t5), t7.Sub(t0)
	if tr.on() {
		step := c.layer + ".step"
		tr.Span("seec.newsim", id, req, t0, t1)
		tr.Span(step, id, req, t1, t2)
		if t3.After(t2) {
			tr.Span("checkpoint.save", id, req, t2, t3)
			tr.Span("checkpoint.restore", id, req, t3, t4)
		}
		tr.Span(step, id, req, t4, t5)
		tr.Span("seec.snapshot", id, req, t5, t6)
		tr.Span("bench.check", id, req, t6, t7)
		tr.Add(Span{ID: id, Parent: parent, Name: "seec.run", Req: req, Start: tr.At(t0), End: tr.At(t7)})
	}
	return r, err
}

// corePassSeconds is a grid pass's host time on the 2-CPU reference
// host. core-mix runs a fixed number of passes sized from the window
// instead of stopping at a deadline, so that its work, and the memory
// the program holds after it, does not depend on the host's speed.
const corePassSeconds = 2.1

// minCorePasses keeps at least 100 runs for the p90 and, in traced
// runs, two traced and two untraced passes after pass 0.
const minCorePasses = 5

// corePasses is the pass count for a window of the given length.
func corePasses(seconds float64) int {
	return max(minCorePasses, int(math.Round(seconds/corePassSeconds)))
}

// setupRounds is how many fresh processes measure core-mix's set-up.
const setupRounds = 7

// coreSetupRound builds every simulator of the grid once and returns
// the seconds it took. It runs in its own process (-core-setup-round).
func coreSetupRound(seed int64) (float64, error) {
	t := time.Now()
	for _, c := range coreGrid() {
		s, err := seec.NewSim(c.config(uint64(seed)))
		if err != nil {
			return 0, err
		}
		s.Close()
	}
	return secs(time.Since(t)), nil
}

// runCoreMix runs whole passes over the grid, serially on one
// goroutine. Pass 0 runs at the default seed and is checked against
// the reference digests; the later passes run at the workload seed and
// must repeat each other's work counts exactly.
func runCoreMix(e *env) (*outcome, error) {
	out := newOutcome()
	grid := coreGrid()
	want, err := loadDigests()
	if err != nil {
		return nil, err
	}

	// Set-up: what a user pays before the first cycle — building every
	// simulator of the grid in a fresh process. Each round runs in a
	// child process: rounds repeated in one process are not alike, since
	// every sharded Sim leaks its network and later rounds collect
	// garbage over a bigger live heap. The median is reported.
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var rounds []float64
	for i := 0; i < setupRounds; i++ {
		b, err := exec.Command(exe, "-core-setup-round", "-seed", fmt.Sprint(e.seed)).Output()
		if err != nil {
			return nil, fmt.Errorf("set-up round: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up round: %w", err)
		}
		rounds = append(rounds, v)
	}
	out.e2e["setup_s"] = median(rounds)

	type perCell struct{ nsPerCycle, newSim, save, restore []float64 }
	by := map[string]*perCell{}
	var jobMS, passWall, passRate, tracedWall, plainWall []float64
	var buf bytes.Buffer // reused: checkpoints of saturated cells run to megabytes
	var creditHops, creditStepNS float64
	refs := map[uint64]workCounts{}
	tr := e.tracer
	root := tr.ID()
	start := time.Now()
	passes := corePasses(e.seconds)
	for pass := 0; pass < passes; pass++ {
		seed := uint64(e.seed)
		if pass == 0 {
			seed = defaultSeed
		}
		traced := tr != nil && pass%2 == 1
		tr.SetOn(tr != nil && (traced || pass == 0))
		passID := tr.ID()
		pstart := time.Now()
		var counts workCounts
		var passHops float64
		var passStep time.Duration
		digests := map[string]string{}
		for i, c := range grid {
			r, err := runCell(c, seed, &buf, tr, passID, int64(pass*len(grid)+i+1))
			out.attempted++
			if err != nil {
				out.fail("core-mix pass %d %s: %v", pass, c.name(), err)
				continue
			}
			counts.FlitHops += r.counts.FlitHops
			counts.Cycles += r.counts.Cycles
			counts.BufferWrites += r.counts.BufferWrites
			counts.SidebandBits += r.counts.SidebandBits
			counts.FFUpgrades += r.counts.FFUpgrades
			counts.CkptBytes += int64(r.ckptBytes)
			digests[c.name()] = r.digest
			step := r.warm + r.measure
			cycles := float64(c.warmup + c.measure)
			passHops += float64(r.counts.FlitHops)
			passStep += step
			if c.layer == "noc" {
				creditHops += float64(r.counts.FlitHops)
				creditStepNS += float64(step)
			}
			jobMS = append(jobMS, ms(r.total))
			pc := by[c.name()]
			if pc == nil {
				pc = &perCell{}
				by[c.name()] = pc
			}
			pc.nsPerCycle = append(pc.nsPerCycle, float64(step)/cycles)
			pc.newSim = append(pc.newSim, ms(r.newSim))
			if r.ckptBytes > 0 {
				pc.save = append(pc.save, ms(r.save))
				pc.restore = append(pc.restore, ms(r.restore))
			}
		}
		wall := time.Since(pstart)
		if pass > 0 {
			passWall = append(passWall, secs(wall))
			passRate = append(passRate, passHops/passStep.Seconds())
		}
		tr.SetOn(true)
		tr.Add(Span{ID: passID, Parent: root, Name: passSpanName(traced || pass == 0, "coremix.pass"),
			Start: tr.At(pstart), End: tr.At(time.Now())})
		if pass > 0 {
			if traced {
				tracedWall = append(tracedWall, secs(wall))
			} else {
				plainWall = append(plainWall, secs(wall))
			}
		}
		// Sharded execution must be byte-identical to serial.
		if a, b := digests["seec.16x16.k1"], digests["seec.16x16.k2"]; a != b {
			out.fail("core-mix pass %d: 16x16 Shards=2 result differs from serial (%s vs %s)", pass, b, a)
		}
		out.attempted++
		if pass == 0 {
			for _, c := range grid {
				out.attempted++
				if d, w := digests[c.name()], want[c.name()]; d != w {
					out.fail("core-mix %s at the default seed: result digest %q, reference %q", c.name(), d, w)
				}
			}
		}
		prev, ok := refs[seed]
		if !ok {
			refs[seed] = counts
			continue
		}
		out.attempted++
		if counts != prev {
			out.fail("core-mix pass %d: work counts %+v differ from an earlier pass at the same seed %+v", pass, counts, prev)
		}
	}
	window := time.Since(start)
	out.e2e["retained_heap_mb"] = retainedHeapMB()
	tr.Add(Span{ID: root, Name: "coremix.window", Start: tr.At(start), End: tr.At(start.Add(window))})

	// No cache sits in front of the simulator, so every pass is a cold
	// sweep of the grid; medians over passes damp host noise.
	out.e2e["sweep_cold_s"] = median(passWall)
	out.e2e["sim_flit_hops_per_s"] = median(passRate)
	out.e2e["job_p50_ms"], _ = percentile(jobMS, 50)
	p90, ok := percentile(jobMS, 90)
	if !ok {
		out.fail("core-mix: only %d runs, too few for a p90", len(jobMS))
	}
	out.layer["job_p90_ms"] = p90
	out.e2e["jobs_per_s"] = float64(len(grid)) / median(passWall)

	var newSim, save, restore []float64
	for _, c := range grid {
		pc := by[c.name()]
		if pc == nil {
			continue
		}
		if c.k == 8 {
			out.layer[fmt.Sprintf("%s.ns_per_cycle.%s.%s", c.layer, c.scheme, c.load)] = median(pc.nsPerCycle)
		}
		newSim = append(newSim, pc.newSim...)
		save = append(save, pc.save...)
		restore = append(restore, pc.restore...)
	}
	if a, b := by["seec.16x16.k1"], by["seec.16x16.k2"]; a != nil && b != nil {
		out.layer["noc.sharded_speedup.16x16"] = median(a.nsPerCycle) / median(b.nsPerCycle)
	}
	out.layer["noc.ns_per_flit_hop"] = creditStepNS / creditHops
	out.layer["seec.newsim_ms"] = median(newSim)
	out.layer["checkpoint.save_ms"] = median(save)
	out.layer["checkpoint.restore_ms"] = median(restore)
	refs[uint64(e.seed)].into(out.layer)
	if len(tracedWall) > 0 && len(plainWall) > 0 {
		out.layer["trace.overhead_ratio"] = median(tracedWall) / median(plainWall)
	}
	return out, nil
}

func loadDigests() (map[string]string, error) {
	b, err := os.ReadFile(coreDigestsPath)
	if err != nil {
		return nil, err
	}
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", coreDigestsPath, err)
	}
	return m, nil
}

// coreReferenceDigests runs every cell through seec.RunSynthetic, the
// library's own uninterrupted path, at the default seed.
func coreReferenceDigests() (map[string]string, error) {
	m := map[string]string{}
	for _, c := range coreGrid() {
		res, err := seec.RunSynthetic(c.config(defaultSeed))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name(), err)
		}
		m[c.name()] = digestResult(res)
	}
	return m, nil
}
