// Command benchmark is sconrep's end-to-end commit-path benchmark:
// client → gateway → replica → certifier → refresh apply → visible on
// every replica, over loopback TCP with the latency model off, with a
// per-layer budget beside it. README.md describes the workloads, the
// metrics and how to read them.
//
//	go run -C benchmark . -seed 1                      # all four workloads, every metric
//	go run -C benchmark . -workload update-heavy -trace 0 -seed 7 -seconds 15
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. The exit code is
// non-zero, and no metrics are printed, when the correctness gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// runDeadline ends a single-workload invocation that hangs, so a
// caller with a time limit gets an exit code and not a kill.
const runDeadline = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (read-only, update-heavy, mixed-skew, tpcw-durable) and end with a JSON line; empty runs all four")
		seed     = flag.Int64("seed", 1, "workload generator seed: the same seed gives the same transactions")
		seconds  = flag.Int("seconds", 20, "length of the timed run, split into five equal windows")
		trace    = flag.Int("trace", -1, "1 adds the layer replay and the traced run, 0 leaves them out; default: on for the whole suite, off with -workload or -repeat")
		repeat   = flag.Int("repeat", 1, "A/A mode: run N times on fresh clusters, print per-metric min/median/max and spread, fail if an end-to-end spread exceeds its bound")
		rec      = flag.Bool("record", false, "append one row per run to "+historyFile)
		smoke    = flag.Bool("smoke", false, "tiny sizes (half-second runs): checks the instrument, measures nothing")
		traceOut = flag.String("trace-out", "", "write the traced run's spans here as JSON lines (with several workloads the name goes before the extension)")
		dataDir  = flag.String("datadir", ".run", "directory under which a fresh data directory is made and removed")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}

	run := specs
	if *workload != "" {
		sp, ok := specByName(*workload)
		if !ok {
			fatalf("unknown workload %q", *workload)
		}
		run = []spec{sp}
		time.AfterFunc(runDeadline, func() { fatalf("still running after %s", runDeadline) })
	}
	if *seconds < 1 || *repeat < 1 {
		fatalf("-seconds and -repeat must be at least 1")
	}

	if err := os.MkdirAll(*dataDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	root, err := os.MkdirTemp(*dataDir, "bench-")
	if err != nil {
		fatalf("%v", err)
	}
	cfg := defaultConfig(*seed, *seconds, root)
	if *smoke {
		cfg = smokeConfig(*seed, root)
	}
	cfg.layers = *trace == 1 || (*trace < 0 && *workload == "" && *repeat == 1)

	code := 0
	byWorkload := make(map[string][]*result)
	var all []*result
runs:
	for i := 0; i < *repeat; i++ {
		for _, sp := range run {
			cfg.traceOut = traceOutFor(*traceOut, sp.name, len(run) > 1)
			r, err := runWorkload(sp, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				code = 1
				break runs
			}
			printResult(r, cfg)
			byWorkload[sp.name] = append(byWorkload[sp.name], r)
			all = append(all, r)
		}
	}
	os.RemoveAll(root)
	if code == 0 && *rec {
		if err := record(all, cfg); err != nil {
			fatalf("-record: %v", err)
		}
	}
	if code == 0 && *repeat > 1 {
		if err := reportRepeats(byWorkload); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			code = 1
		}
	}
	if code == 0 && *workload != "" {
		printJSON(all[len(all)-1], cfg.layers)
	}
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// traceOutFor puts the workload's name before the extension when one
// invocation traces several workloads.
func traceOutFor(path, workload string, several bool) string {
	if path == "" || !several {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + workload + ext
}

func printResult(r *result, cfg config) {
	fmt.Printf("== %s (seed %d, %s timed) ==\n", r.workload, cfg.seed, cfg.measure)
	for _, d := range endToEnd {
		fmt.Printf("%-34s %14.6g %s\n", d.Name, r.e2e[d.Name], d.Unit)
	}
	if r.layer != nil {
		for _, d := range perLayer {
			fmt.Printf("%-34s %14.6g %s\n", d.Name, r.layer[d.Name], d.Unit)
		}
	}
	for _, n := range r.notes {
		fmt.Printf("# %s\n", n)
	}
}

// printJSON writes the result line a driver parses: the per-layer
// metrics when the layers ran, else the end-to-end ones.
func printJSON(r *result, layers bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, r.e2e
	if layers {
		defs, vals = perLayer, r.layer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, r.attempted, r.failed, metrics})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s\n", out)
}
