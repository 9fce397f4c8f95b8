package seec_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"seec"
)

// shardableSchemes is every scheme that runs on the credit-flow
// network and therefore supports sharded execution: SchemeNone plus
// the creditFlowSchemes list (integration_test.go). CHIPPER and MinBD
// run on the deflection core, which has no sharded path (build rejects
// Shards > 1 for them).
func shardableSchemes() []seec.Scheme {
	return append([]seec.Scheme{seec.SchemeNone}, creditFlowSchemes()...)
}

// runCapturing runs one synthetic configuration and returns its Result
// plus the finished Sim, captured through the Instrument hook so the
// test can compare internal end state (Collector, snapshot) that the
// Result summary alone would mask.
func runCapturing(t *testing.T, cfg seec.Config) (seec.Result, *seec.Sim) {
	t.Helper()
	var sim *seec.Sim
	cfg.Instrument = func(s *seec.Sim) func() {
		sim = s
		return nil
	}
	res, err := seec.RunSynthetic(cfg)
	if err != nil {
		t.Fatalf("scheme=%s pattern=%s shards=%d: %v", cfg.Scheme, cfg.Pattern, cfg.Shards, err)
	}
	if sim == nil || sim.Net == nil {
		t.Fatalf("scheme=%s: instrument hook did not capture the network", cfg.Scheme)
	}
	return res, sim
}

// requireIdentical compares a serial and a sharded run of the same
// configuration at every level the simulator exposes: the Result
// summary, the full statistics Collector, and the byte-exact network
// snapshot.
func requireIdentical(t *testing.T, cfg seec.Config, shards int) {
	t.Helper()
	serialCfg := cfg
	serialCfg.Shards = 0
	shardedCfg := cfg
	shardedCfg.Shards = shards

	serialRes, serialSim := runCapturing(t, serialCfg)
	shardedRes, shardedSim := runCapturing(t, shardedCfg)

	// Shards is a speed knob, not a result parameter, and the Instrument
	// hooks are distinct closures by construction; both are scrubbed
	// from the echoed Config before comparison.
	serialRes.Config.Shards, shardedRes.Config.Shards = 0, 0
	serialRes.Config.Instrument, shardedRes.Config.Instrument = nil, nil
	if !reflect.DeepEqual(serialRes, shardedRes) {
		t.Errorf("shards=%d: Result differs\nserial:  %+v\nsharded: %+v", shards, serialRes, shardedRes)
	}
	if !reflect.DeepEqual(serialSim.Collector(), shardedSim.Collector()) {
		t.Errorf("shards=%d: Collector state differs", shards)
	}
	var serialSnap, shardedSnap bytes.Buffer
	serialSim.Net.WriteSnapshot(&serialSnap)
	shardedSim.Net.WriteSnapshot(&shardedSnap)
	if !bytes.Equal(serialSnap.Bytes(), shardedSnap.Bytes()) {
		t.Errorf("shards=%d: final network snapshot differs\nserial:\n%s\nsharded:\n%s",
			shards, serialSnap.Bytes(), shardedSnap.Bytes())
	}
}

// TestShardedIdentity is the bit-identity gate for the tentpole: every
// credit-flow scheme, across traffic patterns, with and without a
// fault spec, must produce byte-identical output at any shard count.
// Shard counts cycle through {2, 4, 8} (including counts that divide
// 64 unevenly happens in FuzzShardedIdentity's 4x4 corpus).
func TestShardedIdentity(t *testing.T) {
	patterns := []string{"uniform_random", "transpose", "bit_complement"}
	shardCounts := []int{2, 4, 8}
	if testing.Short() {
		patterns = patterns[:1]
	}
	i := 0
	for _, scheme := range shardableSchemes() {
		for _, pattern := range patterns {
			for _, faults := range []string{"", "link:0.001,router:1@2000,corrupt:1e-4"} {
				shards := shardCounts[i%len(shardCounts)]
				i++
				name := fmt.Sprintf("%s/%s/k%d", scheme, pattern, shards)
				if faults != "" {
					name += "/faults"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					cfg := seec.DefaultConfig()
					cfg.Scheme = scheme
					cfg.Pattern = pattern
					cfg.InjectionRate = 0.10
					cfg.SimCycles = 3000
					cfg.Warmup = 500
					cfg.Faults = faults
					requireIdentical(t, cfg, shards)
				})
			}
		}
	}
}

// TestShardedStepRace exercises every stage composition of the sharded
// step long enough for the race detector to observe cross-shard
// conflicts: the fully parallel path (XY: parallel VA, injection,
// generation, consumption), the serial-VA path (SEEC's escape policy),
// and the faulted path (serial data delivery and injection, parallel
// credits and routers). Run under `go test -race` — ci.sh has a
// dedicated pass.
func TestShardedStepRace(t *testing.T) {
	cases := []struct {
		name   string
		scheme seec.Scheme
		faults string
	}{
		{"parallel_va", seec.SchemeXY, ""},
		{"serial_va", seec.SchemeSEEC, ""},
		{"faulted", seec.SchemeXY, "link:0.002,drop:0.001"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := seec.DefaultConfig()
			cfg.Scheme = tc.scheme
			cfg.InjectionRate = 0.20
			cfg.SimCycles = 1500
			cfg.Warmup = 200
			cfg.Faults = tc.faults
			cfg.Shards = 4
			if _, err := seec.RunSynthetic(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzShardedIdentity fuzzes the shard count (and the scheme, pattern
// and rate around it) against serial output on a 4x4 mesh — small
// enough that shard counts clamp and divide unevenly, which is where
// partition bookkeeping bugs live.
func FuzzShardedIdentity(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(51), uint8(3), false)
	f.Add(uint8(8), uint8(1), uint8(102), uint8(16), true)
	f.Add(uint8(3), uint8(2), uint8(25), uint8(200), false)
	patterns := []string{"uniform_random", "transpose", "bit_complement", "tornado", "shuffle"}
	f.Fuzz(func(t *testing.T, schemeB, patternB, rateB, shardB uint8, faulted bool) {
		cfg := seec.DefaultConfig()
		cfg.Rows, cfg.Cols = 4, 4
		schemes := shardableSchemes()
		cfg.Scheme = schemes[int(schemeB)%len(schemes)]
		cfg.Pattern = patterns[int(patternB)%len(patterns)]
		cfg.InjectionRate = float64(rateB%128) / 512 // [0, 0.25)
		cfg.SimCycles = 400
		cfg.Warmup = 100
		if faulted {
			cfg.Faults = "link:0.002,corrupt:1e-3,drop:1e-3"
		}
		shards := int(shardB)
		if shards < 2 {
			shards = 2
		}
		requireIdentical(t, cfg, shards)
	})
}

// TestClosedShardedSimsAreCollected: a Closed sharded Sim must be
// garbage. The network binds its stage functions as method values, so
// it is a reference cycle, and the GC never collects a cycle that
// carries a finalizer: no object of it may set one. Pinned to
// GOMAXPROCS=2 because single-CPU processes never start the worker
// pool (they delegate to the serial step).
func TestClosedShardedSimsAreCollected(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < 10; i++ {
		cfg := seec.DefaultConfig()
		cfg.Rows, cfg.Cols = 16, 16
		cfg.Scheme = seec.SchemeSEEC
		cfg.InjectionRate = 0.05
		cfg.Shards = 2
		sim, err := seec.NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(50) // starts the worker pool
		sim.Close()
	}
	after := heap()
	const bound = 1 << 20
	if after > before && after-before > bound {
		t.Fatalf("10 closed 16x16 sharded Sims retain %.1f MB after GC, want <= 1 MB",
			float64(after-before)/(1<<20))
	}
}
