package bench

import (
	"fmt"
	"io"
	"time"

	"sconrep/internal/core"
	"sconrep/internal/metrics"
	"sconrep/internal/workload/micro"
)

// Experiment parameters shared with EXPERIMENTS.md. The paper's
// testbed used 8 replicas for the micro-benchmark; client counts per
// replica for TPC-W come from §V-C (10 browsing, 8 shopping, 5
// ordering).
const (
	MicroReplicas = 8
	// MicroClients matches §V-B: "We use 8 replicas and 8 clients and
	// each client issues randomly selected transactions ... back-to-back
	// in a closed loop." The closed loop keeps the system in the
	// latency-limited regime, where the consistency modes' response-time
	// differences translate directly into throughput differences.
	MicroClients = 8
	// TPCWThink is the emulated browser think time at paper scale.
	TPCWThink = 200 * time.Millisecond
)

// clientsPerReplica returns the paper's scaled-load client counts.
func clientsPerReplica(mix string) int {
	switch mix {
	case "browsing":
		return 10
	case "shopping":
		return 8
	default: // ordering
		return 5
	}
}

// msOf renders a duration as paper-style milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// seriesRow is one replicas-count row of a Figure 5/6/7 table, with
// one Result per mode (in Modes order).
type seriesRow struct {
	reps int
	res  []Result
}

// printSeries renders one replicas-vs-modes table.
func printSeries(w io.Writer, rows []seriesRow, metric func(Result) float64, cellFmt string) {
	fmt.Fprintf(w, "%-9s", "replicas")
	for _, m := range Modes {
		fmt.Fprintf(w, "%10s", m)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-9d", r.reps)
		for j := range Modes {
			fmt.Fprintf(w, cellFmt, metric(r.res[j]))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// Fig3 regenerates Figure 3: micro-benchmark throughput vs update
// ratio at MicroReplicas replicas, all four modes. It returns the
// results grid [ratioIdx][modeIdx] and prints the table.
func Fig3(w io.Writer, prof Profile, ratios []int) ([][]Result, error) {
	if len(ratios) == 0 {
		ratios = []int{0, 10, 25, 50, 75, 100}
	}
	fmt.Fprintf(w, "Figure 3 — micro-benchmark throughput (TPS), %d replicas, %d clients\n", MicroReplicas, MicroClients)
	fmt.Fprintf(w, "%-9s", "update%")
	for _, m := range Modes {
		fmt.Fprintf(w, "%10s", m)
	}
	fmt.Fprintln(w)

	grid := make([][]Result, len(ratios))
	for i, ratio := range ratios {
		grid[i] = make([]Result, len(Modes))
		fmt.Fprintf(w, "%-9d", ratio)
		for j, mode := range Modes {
			res, err := Run(Point{
				Workload: "micro", Mode: mode,
				Replicas: MicroReplicas, Clients: MicroClients,
				UpdatePercent: ratio,
			}, prof)
			if err != nil {
				return nil, err
			}
			grid[i][j] = res
			fmt.Fprintf(w, "%10.1f", res.Snapshot.TPS)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return grid, nil
}

// Fig4 regenerates Figure 4: the per-stage latency breakdown at the
// 25% (a) and 100% (b) update mixes.
func Fig4(w io.Writer, prof Profile) error {
	for _, ratio := range []int{25, 100} {
		sub := "a"
		if ratio == 100 {
			sub = "b"
		}
		fmt.Fprintf(w, "Figure 4(%s) — latency breakdown (ms/txn at paper scale), %d%% update mix, %d replicas\n",
			sub, ratio, MicroReplicas)
		fmt.Fprintf(w, "%-6s", "mode")
		for _, st := range metrics.Stages {
			fmt.Fprintf(w, "%9s", st)
		}
		fmt.Fprintf(w, "%9s\n", "total")
		for _, mode := range Modes {
			res, err := Run(Point{
				Workload: "micro", Mode: mode,
				Replicas: MicroReplicas, Clients: MicroClients,
				UpdatePercent: ratio,
			}, prof)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-6s", mode)
			var total time.Duration
			for _, st := range metrics.Stages {
				d := res.Snapshot.StageMeans[st]
				total += d
				fmt.Fprintf(w, "%9.2f", msOf(d)/prof.Scale)
			}
			fmt.Fprintf(w, "%9.2f\n", msOf(total)/prof.Scale)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// tpcwSweep runs one mix over the replica counts for all modes.
func tpcwSweep(mix string, replicaCounts []int, clients func(reps int) int, prof Profile) ([]seriesRow, error) {
	var rows []seriesRow
	for _, n := range replicaCounts {
		r := seriesRow{reps: n}
		for _, mode := range Modes {
			res, err := Run(Point{
				Workload: "tpcw", Mode: mode,
				Replicas: n, Clients: clients(n),
				Mix: mix, ThinkTime: TPCWThink,
			}, prof)
			if err != nil {
				return nil, err
			}
			r.res = append(r.res, res)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// TPCWScaled regenerates Figures 5 and 6 in one sweep: throughput and
// response time under scaled load (clients grow with replicas), plus
// the synchronization delay series for the shopping and ordering
// mixes.
func TPCWScaled(w io.Writer, prof Profile, mixes []string, replicaCounts []int) error {
	if len(mixes) == 0 {
		mixes = []string{"browsing", "shopping", "ordering"}
	}
	if len(replicaCounts) == 0 {
		replicaCounts = []int{1, 2, 4, 6, 8}
	}
	for _, mix := range mixes {
		cpr := clientsPerReplica(mix)
		rows, err := tpcwSweep(mix, replicaCounts, func(n int) int { return n * cpr }, prof)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Figure 5 — TPC-W %s mix, scaled load (%d clients/replica): throughput (TPS)\n", mix, cpr)
		printSeries(w, rows, func(r Result) float64 { return r.Snapshot.TPS }, "%10.1f")
		fmt.Fprintf(w, "Figure 5 — TPC-W %s mix, scaled load: response time (ms at paper scale)\n", mix)
		printSeries(w, rows, func(r Result) float64 { return msOf(r.Snapshot.MeanResponse) / prof.Scale }, "%10.2f")
		if mix != "browsing" {
			fmt.Fprintf(w, "Figure 6 — TPC-W %s mix: synchronization delay (ms at paper scale)\n", mix)
			printSeries(w, rows, func(r Result) float64 { return msOf(r.Snapshot.MeanSync) / prof.Scale }, "%10.2f")
		}
	}
	return nil
}

// TPCWFixed regenerates Figure 7: response time under fixed total load
// (the single-replica client count held constant as replicas grow).
func TPCWFixed(w io.Writer, prof Profile, mixes []string, replicaCounts []int) error {
	if len(mixes) == 0 {
		mixes = []string{"shopping", "ordering"}
	}
	if len(replicaCounts) == 0 {
		replicaCounts = []int{1, 2, 4, 6, 8}
	}
	for _, mix := range mixes {
		clients := clientsPerReplica(mix) * 2 // fixed at the 2-replica scaled load
		rows, err := tpcwSweep(mix, replicaCounts, func(int) int { return clients }, prof)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Figure 7 — TPC-W %s mix, fixed load (%d clients): response time (ms at paper scale)\n", mix, clients)
		printSeries(w, rows, func(r Result) float64 { return msOf(r.Snapshot.MeanResponse) / prof.Scale }, "%10.2f")
	}
	return nil
}

// TableI regenerates Table I deterministically from the version
// tracker (no measurement involved).
func TableI(w io.Writer) {
	tr := core.NewTracker()
	type step struct {
		name   string
		tables []string
	}
	steps := []step{
		{"T1", []string{"A"}},
		{"T2", []string{"B", "C"}},
		{"T3", []string{"B"}},
		{"T4", []string{"C"}},
		{"T5", []string{"B", "C"}},
	}
	fmt.Fprintln(w, "Table I — database and table versions")
	fmt.Fprintf(w, "%-5s %-14s %8s %4s %4s %4s\n", "txn", "updates", "Vsystem", "VA", "VB", "VC")
	for i, st := range steps {
		tr.ObserveCommit(uint64(i+1), st.tables)
		fmt.Fprintf(w, "%-5s %-14v %8d %4d %4d %4d\n",
			st.name, st.tables, tr.VSystem(),
			tr.TableVersion("A"), tr.TableVersion("B"), tr.TableVersion("C"))
	}
	fmt.Fprintf(w, "T6 accesses table A only: CSC start version = %d, FSC start version = %d\n\n",
		tr.MinStartVersion(core.Coarse, []string{"A"}, core.Floor{}),
		tr.MinStartVersion(core.Fine, []string{"A"}, core.Floor{}))
}

// AblationGranularity compares CSC against FSC on a skewed micro
// workload where updates hammer one table while reads target another —
// the case where table-level synchronization shines (§III-C).
func AblationGranularity(w io.Writer, prof Profile) error {
	fmt.Fprintln(w, "Ablation — synchronization granularity (micro, updates on table 0, reads on table 3)")
	fmt.Fprintf(w, "%-6s%12s%18s%22s\n", "mode", "TPS", "startDelay(ms)", "readStartDelay(ms)")
	for _, mode := range []core.Mode{core.Coarse, core.Fine} {
		res, err := RunSkewedMicro(mode, prof)
		if err != nil {
			return err
		}
		// The read-only column is the discriminating number: the
		// clients are closed-loop, so FSC's non-waiting readers speed
		// the loop up and the extra updates' waits blur the
		// all-transaction mean; the readers' own delay is immune.
		fmt.Fprintf(w, "%-6s%12.1f%18.3f%22.4f\n", mode, res.Snapshot.TPS,
			msOf(res.Snapshot.StageMeans[metrics.StageVersion])/prof.Scale,
			msOf(res.Snapshot.MeanReadSync)/prof.Scale)
	}
	fmt.Fprintln(w)
	return nil
}

// AblationEarlyCert measures early certification's effect on a
// high-conflict micro mix (wasted certification round trips saved vs
// the cost of the extra checks).
func AblationEarlyCert(w io.Writer, prof Profile) error {
	fmt.Fprintln(w, "Ablation — early certification (micro, 100% updates on a small table, CSC, 8 replicas)")
	fmt.Fprintf(w, "%-10s%12s%12s\n", "earlyCert", "TPS", "abortRate")
	for _, disable := range []bool{false, true} {
		res, err := RunEarlyCertPoint(disable, prof)
		if err != nil {
			return err
		}
		label := "on"
		if disable {
			label = "off"
		}
		fmt.Fprintf(w, "%-10s%12.1f%12.4f\n", label, res.Snapshot.TPS, res.Snapshot.AbortRate())
	}
	fmt.Fprintln(w)
	return nil
}

// RunSkewedMicro runs the granularity-ablation point: all updates on
// table 0, all reads on table 3, so FSC's reads never wait while CSC's
// reads wait for every update.
func RunSkewedMicro(mode core.Mode, prof Profile) (Result, error) {
	return Run(Point{
		Workload: "micro", Mode: mode,
		Replicas: 4, Clients: 32, UpdatePercent: 50,
		MicroScale:        micro.Scale{RowsPerTable: 2000, Seed: 77},
		MicroUpdateTables: []int{0},
		MicroReadTables:   []int{3},
	}, prof)
}

// RunEarlyCertPoint runs the early-certification ablation point with a
// deliberately tiny table to provoke conflicts.
func RunEarlyCertPoint(disableEarlyCert bool, prof Profile) (Result, error) {
	return Run(Point{
		Workload: "micro", Mode: core.Coarse,
		Replicas: MicroReplicas, Clients: MicroClients,
		UpdatePercent:    100,
		MicroScale:       micro.Scale{RowsPerTable: 64, Seed: 88},
		DisableEarlyCert: disableEarlyCert,
	}, prof)
}
