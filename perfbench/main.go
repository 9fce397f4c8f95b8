// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator, the figure-sweep driver or the seecd
// gateway, checks that every output is correct, and prints one JSON
// object on the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics listed in
// BENCHMARK.json; with -trace 1 they are its per-layer metrics, derived
// from spans the benchmark records around each layer's public calls,
// and the spans are written as JSONL under .bench_build/trace/.
// See perfbench/README.md for the workloads and the metric map.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
)

// workload runs one named workload and returns what it measured.
type workload func(env *env) (*outcome, error)

var workloads = map[string]workload{
	"core-mix":      runCoreMix,
	"figures-slice": runFiguresSlice,
	"seecd-open":    runSeecdOpen,
}

// env is what a workload is handed: its seed, its timed-window length,
// the tracer (nil in untraced runs) and a private scratch directory.
type env struct {
	seed    int64
	seconds float64
	tracer  *Tracer
	work    string
}

// outcome is one workload's measurements and correctness record.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed or wrong operation with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 50 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: core-mix, figures-slice or seecd-open")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "1 = traced run (per-layer metrics and span file), 0 = end-to-end metrics")
	update := flag.Bool("update-data", false, "rewrite the reference tables under perfbench/data from this build, then exit")
	setupRound := flag.Bool("core-setup-round", false, "measure one core-mix set-up round in this process, print its seconds and exit (used by core-mix)")
	flag.Parse()

	if *setupRound {
		v, err := coreSetupRound(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(v)
		return
	}

	if *update {
		if err := updateData(); err != nil {
			fatal(err)
		}
		return
	}
	rep, err := benchmark(*name, *seed, *seconds, *traced)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// benchmark runs one workload and assembles its report. An error means
// the benchmark could not run at all, as opposed to a wrong result.
func benchmark(name string, seed int64, seconds float64, traced int) (*report, error) {
	run, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (valid: core-mix, figures-slice, seecd-open)", name)
	}
	if seconds <= 0 || (traced != 0 && traced != 1) {
		return nil, errors.New("-seconds must be positive and -trace 0 or 1")
	}
	spec, err := loadBenchSpec("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	for _, f := range []string{"go.mod", referencePath} {
		if _, err := os.Stat(f); err != nil {
			return nil, fmt.Errorf("not a full source checkout: %w", err)
		}
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	e := &env{seed: seed, seconds: seconds, work: work}
	if traced == 1 {
		e.tracer = NewTracer()
	}
	fmt.Fprintf(os.Stderr, "perfbench: host %s\n", hostFingerprint())
	out, err := run(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	out.layer["peak_rss_mb"] = peakRSSMB()
	if out.attempted > 0 {
		out.layer["error_rate"] = float64(out.failed) / float64(out.attempted)
	}
	if e.tracer != nil {
		if err := finishTrace(e.tracer, name, seed, out); err != nil {
			return nil, err
		}
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s\n", p)
	}

	want, have := spec.EndToEnd, out.e2e
	if e.tracer != nil {
		want, have = spec.PerLayer, out.layer
	}
	rep := &report{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := have[m.Name]
		switch {
		case ok:
		case e.tracer != nil:
			v = 0 // the layer does no work in this workload
		default:
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", name, m.Name)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64 // a failed operation is beyond any limit
		}
		rep.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return rep, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

func loadBenchSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// updateData rewrites the reference tables from the current build.
func updateData() error {
	digests, err := coreReferenceDigests()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".", ".perfbench-update-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	counts, err := figureReferenceCounts(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	for path, v := range map[string]any{coreDigestsPath: digests, figuresCountsPath: counts} {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// retainedHeapMB is the heap the program still holds at the end of a
// workload's timed window: the live bytes after a forced collection,
// in MiB. Unlike the resident-set peak, which depends on where
// collections happen to fall relative to allocation bursts, it repeats
// from run to run, and it grows with anything the program leaks. The
// collection runs twice because objects idle in a sync.Pool survive
// the first one, and how many there are depends on timing.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostFingerprint names the host a measurement was taken on.
func hostFingerprint() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	b, _ := json.Marshal(map[string]any{
		"cpu": model, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "os": runtime.GOOS + "/" + runtime.GOARCH,
	})
	return string(b)
}
