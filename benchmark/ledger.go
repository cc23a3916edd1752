package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// historyFile is the append-only ledger -record writes to, relative to
// the benchmark's directory. Rows are only ever appended.
const historyFile = "history.jsonl"

// fingerprint identifies the host a row was measured on.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	DataDirFS  string `json:"datadir_fs"`
}

func hostFingerprint(dataDir string) fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		DataDirFS:  fsType(dataDir),
	}
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsNames maps statfs magic numbers to the names mount(8) prints.
var fsNames = map[int64]string{
	0xEF53:     "ext2/ext3/ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// gitCommit is the checked-out commit, or "unknown" outside a git
// work tree (the ledger is written by hand-run -record only).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// ledgerRow is one line of history.jsonl.
type ledgerRow struct {
	Time     string             `json:"time"`
	Commit   string             `json:"commit"`
	Seed     int64              `json:"seed"`
	Workload string             `json:"workload"`
	Seconds  float64            `json:"seconds"`
	Host     fingerprint        `json:"host"`
	Metrics  map[string]float64 `json:"metrics"`
}

// record appends one row per result to the ledger.
func record(results []*result, cfg config) error {
	f, err := os.OpenFile(historyFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	host, commit, now := hostFingerprint(cfg.dataRoot), gitCommit(), time.Now().UTC().Format(time.RFC3339)
	enc := json.NewEncoder(f)
	for _, r := range results {
		row := ledgerRow{
			Time: now, Commit: commit, Seed: cfg.seed, Workload: r.workload,
			Seconds: cfg.measure.Seconds(), Host: host, Metrics: map[string]float64{},
		}
		for k, v := range r.e2e {
			row.Metrics[k] = v
		}
		for k, v := range r.layer {
			row.Metrics[k] = v
		}
		if err := enc.Encode(row); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// reportRepeats prints, per workload and metric, min/median/max,
// (max−min)/median and the quartile spread over the repeats, and returns
// an error naming every end-to-end metric whose quartile spread exceeds
// its bound — the driver's acceptance rule. setup_s is printed but not
// judged, as in the driver: its bound guards the median between
// changes, not the spread of runs on a shared host.
func reportRepeats(byWorkload map[string][]*result) error {
	var over []string
	for _, sp := range specs {
		runs := byWorkload[sp.name]
		if len(runs) == 0 {
			continue
		}
		fmt.Printf("== %s: %d runs ==\n", sp.name, len(runs))
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				var vals []float64
				for _, r := range runs {
					if v, ok := r.e2e[d.Name]; ok {
						vals = append(vals, v)
					} else if v, ok := r.layer[d.Name]; ok {
						vals = append(vals, v)
					}
				}
				if len(vals) == 0 {
					continue
				}
				lo, hi := minMax(vals)
				spread := quartileSpread(vals)
				verdict := ""
				if d.Bound > 0 && d.Name != "setup_s" {
					verdict = fmt.Sprintf("  bound %.2f ok", d.Bound)
					if spread > d.Bound {
						verdict = fmt.Sprintf("  bound %.2f EXCEEDED", d.Bound)
						over = append(over, fmt.Sprintf("%s/%s spread %.3f > bound %.2f", sp.name, d.Name, spread, d.Bound))
					}
				}
				fmt.Printf("%-34s min %-12.6g median %-12.6g max %-12.6g %s  range/median %.3f  iqr/median %.3f%s\n",
					d.Name, lo, median(vals), hi, d.Unit, rangeSpread(vals), spread, verdict)
			}
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("A/A quartile spread beyond bound: %s", strings.Join(over, "; "))
	}
	return nil
}
