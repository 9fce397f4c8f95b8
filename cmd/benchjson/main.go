// Command benchjson converts `go test -bench` output on stdin into a
// JSON object on stdout:
//
//	go test -bench Step -benchmem -run '^$' ./internal/noc | benchjson
//
// yields
//
//	{
//	  "meta": {"timestamp": "...", "go_version": "go1.x"},
//	  "benchmarks": {"seec/internal/noc.BenchmarkStep/rate=0.02": {"ns_op": 16096, "gomaxprocs": 8, ...}}
//	}
//
// so perf records (BENCH_step.json) can be diffed across commits
// without parsing the text format again, and a stale record is
// self-describing about when and where it was taken.
//
// Repeated samples of one benchmark (`go test -count N`) are all kept:
// ns_op is their median, with the min, max, sample count and every
// sample recorded beside it. The other per-line metrics come from the
// last sample.
//
// With -compare old.json the fresh run (still read as bench text on
// stdin) is instead diffed against a previously saved record: one line
// per benchmark with ns/op and allocs/op deltas, so `make benchdiff`
// answers "did this commit move the hot path" without eyeballing two
// JSON files. Both sides compare by median ns/op.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// result holds the metrics of one benchmark line. GOMAXPROCS is the
// per-benchmark value go test encodes as the name's trailing "-N"
// (absent when it was 1) — benchmarks like BenchmarkStepSharded tune
// it per run, so a single process-global number would be wrong.
type result struct {
	NsOp float64 `json:"ns_op"` // median over Samples
	// NsOpMin, NsOpMax and N summarize the repeated samples; Samples
	// keeps each one in input order.
	NsOpMin    float64   `json:"ns_op_min"`
	NsOpMax    float64   `json:"ns_op_max"`
	N          int       `json:"n"`
	Samples    []float64 `json:"samples"`
	BOp        float64 `json:"b_op,omitempty"`
	AllocsOp   float64 `json:"allocs_op,omitempty"`
	Iters      int64   `json:"iters"`
	GOMAXPROCS int     `json:"gomaxprocs"`

	// Metrics carries custom b.ReportMetric units verbatim (e.g. the
	// checkpoint benchmarks' "ckpt-bytes"), keyed by unit string.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// meta records when/where the benchmarks ran. The cpu line of the
// bench output is folded in when present. GOMAXPROCS lives on each
// benchmark entry, not here.
type meta struct {
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
	CPU       string `json:"cpu,omitempty"`
}

// record is the document benchjson emits.
type record struct {
	Meta       meta              `json:"meta"`
	Benchmarks map[string]result `json:"benchmarks"`
}

func main() {
	compare := flag.String("compare", "", "path to a previous benchjson record; print per-benchmark deltas instead of JSON")
	failAbove := flag.Float64("fail-above", 0, "with -compare: exit non-zero if any benchmark's ns/op regressed by more than this percentage (0 = report only)")
	flag.Parse()
	if *failAbove < 0 {
		fmt.Fprintf(os.Stderr, "benchjson: -fail-above %g: must be non-negative\n", *failAbove)
		os.Exit(2)
	}
	if *failAbove > 0 && *compare == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -fail-above needs -compare")
		os.Exit(2)
	}
	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *compare != "" {
		regressed, err := printDiff(os.Stdout, *compare, doc, *failAbove)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if len(regressed) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed past the %+.1f%% gate:\n", len(regressed), *failAbove)
			for _, r := range regressed {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` text and folds it into a record, one
// entry per benchmark name with every repeated sample kept.
func parse(r io.Reader) (record, error) {
	doc := record{
		Meta: meta{
			Timestamp: time.Now().UTC().Format(time.RFC3339),
			GoVersion: runtime.Version(),
		},
		Benchmarks: make(map[string]result),
	}
	out := doc.Benchmarks
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			doc.Meta.CPU = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := result{Iters: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsOp = v
			case "B/op":
				r.BOp = v
			case "allocs/op":
				r.AllocsOp = v
			case "MB/s":
				// Throughput restates ns/op; skip it to keep entries lean.
			default:
				if r.Metrics == nil {
					r.Metrics = make(map[string]float64)
				}
				r.Metrics[unit] = v
			}
		}
		name, procs := splitProcs(fields[0])
		r.GOMAXPROCS = procs
		if pkg != "" {
			name = pkg + "." + name
		}
		r.Samples = append(out[name].Samples, r.NsOp)
		out[name] = r
	}
	for name, r := range out {
		sorted := append([]float64(nil), r.Samples...)
		sort.Float64s(sorted)
		r.N = len(sorted)
		r.NsOpMin, r.NsOpMax = sorted[0], sorted[r.N-1]
		r.NsOp = sorted[r.N/2]
		if r.N%2 == 0 {
			r.NsOp = (sorted[r.N/2-1] + sorted[r.N/2]) / 2
		}
		out[name] = r
	}
	return doc, sc.Err()
}

// printDiff loads the saved record at oldPath and prints one line per
// benchmark comparing it with the fresh run: ns/op with the percentage
// change (negative is faster) and allocs/op with its absolute delta.
// Benchmarks present on only one side are listed so a renamed or
// deleted benchmark can't silently vanish from the comparison. With
// failAbove > 0, benchmarks whose ns/op grew by more than that
// percentage come back as regression descriptions for the caller's
// exit-status gate.
func printDiff(w io.Writer, oldPath string, fresh record, failAbove float64) ([]string, error) {
	data, err := os.ReadFile(oldPath)
	if err != nil {
		return nil, err
	}
	var old record
	if err := json.Unmarshal(data, &old); err != nil {
		return nil, fmt.Errorf("%s: %v", oldPath, err)
	}
	names := make([]string, 0, len(fresh.Benchmarks)+len(old.Benchmarks))
	for name := range fresh.Benchmarks {
		names = append(names, name)
	}
	for name := range old.Benchmarks {
		if _, ok := fresh.Benchmarks[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "old: %s (%s)\nnew: %s (%s)\n\n",
		oldPath, old.Meta.Timestamp, "stdin", fresh.Meta.Timestamp)
	fmt.Fprintf(w, "%-64s %12s %12s %8s  %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs/op")
	var regressed []string
	for _, name := range names {
		o, haveOld := old.Benchmarks[name]
		n, haveNew := fresh.Benchmarks[name]
		switch {
		case !haveOld:
			fmt.Fprintf(w, "%-64s %12s %12.0f %8s  %s\n",
				name, "-", n.NsOp, "new", allocDelta(false, true, o, n))
		case !haveNew:
			fmt.Fprintf(w, "%-64s %12.0f %12s %8s  %s\n",
				name, o.NsOp, "-", "gone", "")
		default:
			pct := "n/a"
			if o.NsOp != 0 {
				d := 100 * (n.NsOp - o.NsOp) / o.NsOp
				pct = fmt.Sprintf("%+.1f%%", d)
				if failAbove > 0 && d > failAbove {
					regressed = append(regressed, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%s)", name, o.NsOp, n.NsOp, pct))
				}
			}
			fmt.Fprintf(w, "%-64s %12.0f %12.0f %8s  %s\n",
				name, o.NsOp, n.NsOp, pct, allocDelta(true, true, o, n))
		}
	}
	return regressed, nil
}

// allocDelta formats the allocs/op side of a diff line: "old -> new"
// when it moved, the bare value when it held, empty when both sides
// are zero (the common case for the tuned hot paths, where printing
// "0 -> 0" per line would bury the one benchmark that regressed).
func allocDelta(haveOld, haveNew bool, o, n result) string {
	ov, nv := 0.0, 0.0
	if haveOld {
		ov = o.AllocsOp
	}
	if haveNew {
		nv = n.AllocsOp
	}
	switch {
	case ov == 0 && nv == 0:
		return ""
	case !haveOld || ov == nv:
		return fmt.Sprintf("%.0f", nv)
	default:
		return fmt.Sprintf("%.0f -> %.0f", ov, nv)
	}
}

// splitProcs splits go test's benchmark-name encoding of GOMAXPROCS —
// a trailing "-N" appended when N != 1 — into the bare name and N.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n < 1 {
		return name, 1
	}
	return name[:i], n
}
