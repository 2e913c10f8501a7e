package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"aspen/internal/telemetry"
)

// Perf trajectory: the machine-readable form of a bench table, written
// as BENCH_<table>.json so performance is a tracked artifact with a
// history, not a number scrolling by in CI logs. A snapshot carries
// enough metadata (host, go version, commit, parameters) to judge
// whether two files are comparable at all, and Compare diffs two
// snapshots row by row, flagging metric movements beyond a threshold in
// the metric's bad direction — the regression gate bench-compare.sh and
// the CI warn-step drive.

// TrajectorySchema versions the JSON layout.
const TrajectorySchema = 1

// DefaultRegressionThreshold is the relative movement Compare flags:
// >15% in the metric's bad direction.
const DefaultRegressionThreshold = 0.15

// Trajectory is one bench table measured at one point in time.
type Trajectory struct {
	Schema    int               `json:"schema"`
	Table     string            `json:"table"` // the Table.ID ("serve", "fig8", ...)
	Title     string            `json:"title,omitempty"`
	Generated string            `json:"generated"` // RFC3339 UTC
	Commit    string            `json:"commit,omitempty"`
	Host      TrajectoryHost    `json:"host"`
	Params    map[string]string `json:"params,omitempty"`
	Rows      []TrajectoryRow   `json:"rows"`
}

// TrajectoryHost identifies the machine a snapshot was measured on —
// cross-host comparisons are possible but suspect, and the compare
// report says so.
type TrajectoryHost struct {
	OS   string `json:"os"`
	Arch string `json:"arch"`
	CPUs int    `json:"cpus"`
	Go   string `json:"go"`
}

// TrajectoryRow is one table row's numeric cells, keyed by sanitized
// column header ("µs/req" → "us_req").
type TrajectoryRow struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// metricKey normalizes a column header into a stable JSON key: µ → u
// (so "µs/req" survives as us_req, not s_req), then lowercased metric-
// name sanitization.
func metricKey(header string) string {
	return strings.ToLower(telemetry.SanitizeMetricName(strings.ReplaceAll(header, "µ", "u")))
}

// NewTrajectory extracts a table's numeric cells into a snapshot.
// Cells that do not lead with a number ("JSON", "850 MHz" keeps 850)
// are skipped, mirroring Table.Publish. commit may be empty; params
// records the generation parameters (document size, scale, ...).
func NewTrajectory(t *Table, commit string, params map[string]string) *Trajectory {
	tr := &Trajectory{
		Schema:    TrajectorySchema,
		Table:     t.ID,
		Title:     t.Title,
		Generated: time.Now().UTC().Format(time.RFC3339),
		Commit:    commit,
		Host: TrajectoryHost{
			OS:   runtime.GOOS,
			Arch: runtime.GOARCH,
			CPUs: runtime.NumCPU(),
			Go:   runtime.Version(),
		},
		Params: params,
	}
	for _, row := range t.Rows {
		if len(row) == 0 {
			continue
		}
		metrics := make(map[string]float64)
		for c := 1; c < len(row) && c < len(t.Header); c++ {
			cell := strings.TrimSpace(row[c])
			if f := strings.Fields(cell); len(f) > 0 {
				cell = f[0]
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				continue
			}
			metrics[metricKey(t.Header[c])] = v
		}
		tr.Rows = append(tr.Rows, TrajectoryRow{Name: row[0], Metrics: metrics})
	}
	return tr
}

// TrajectoryFile is the conventional filename for a table's snapshot.
func TrajectoryFile(tableID string) string { return "BENCH_" + tableID + ".json" }

// WriteFile writes the snapshot as indented JSON.
func (tr *Trajectory) WriteFile(path string) error {
	data, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadTrajectory loads a snapshot, rejecting unknown schemas.
func ReadTrajectory(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tr Trajectory
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if tr.Schema != TrajectorySchema {
		return nil, fmt.Errorf("bench: %s: schema %d, this build reads %d", path, tr.Schema, TrajectorySchema)
	}
	return &tr, nil
}

// Metric direction: which way is worse. Latency-like metrics regress
// upward, throughput-like metrics regress downward, identity-like
// columns (bank counts, request totals) are configuration — a change
// there means the runs are not comparable, which Compare reports
// separately rather than grading.
const (
	lowerIsBetter  = -1
	neutralMetric  = 0
	higherIsBetter = 1
)

// Marks match whole "_"-separated segments of a key (a multi-segment
// mark such as "req_s" matches that run of segments), never bare
// substrings: "tokens" holds "ns" but counts document size.
var lowerBetterMarks = []string{"ns", "us", "ms", "alloc", "allocs", "joule", "latency", "cycles", "stall", "stalls", "table_kb"}
var higherBetterMarks = []string{"req_s", "mb_s", "kb_s", "per_sec", "throughput", "mhz", "ghz", "speedup", "recall"}

func metricDirection(key string) int {
	k := "_" + strings.ToLower(key) + "_"
	for _, m := range higherBetterMarks {
		if strings.Contains(k, "_"+m+"_") {
			return higherIsBetter
		}
	}
	for _, m := range lowerBetterMarks {
		if strings.Contains(k, "_"+m+"_") {
			return lowerIsBetter
		}
	}
	return neutralMetric
}

// TrajectoryDelta is one metric's movement between two snapshots.
// Ratio is new/old; Regression is set when the movement exceeds the
// threshold in the metric's bad direction.
type TrajectoryDelta struct {
	Row        string
	Metric     string
	Old, New   float64
	Ratio      float64
	Regression bool
	Improved   bool
}

// CompareResult is the full diff of two snapshots.
type CompareResult struct {
	Deltas []TrajectoryDelta
	// Notes carries comparability caveats: rows or metrics present on
	// one side only, configuration drift, host mismatches.
	Notes []string
}

// Regressions counts flagged deltas.
func (c *CompareResult) Regressions() int {
	n := 0
	for _, d := range c.Deltas {
		if d.Regression {
			n++
		}
	}
	return n
}

// Compare diffs two snapshots of the same table. threshold ≤ 0 takes
// DefaultRegressionThreshold. Neutral (configuration) metrics are
// graded only for drift → a note, never a regression.
func Compare(old, cur *Trajectory, threshold float64) *CompareResult {
	if threshold <= 0 {
		threshold = DefaultRegressionThreshold
	}
	res := &CompareResult{}
	if old.Table != cur.Table {
		res.Notes = append(res.Notes, fmt.Sprintf("comparing different tables: %q vs %q", old.Table, cur.Table))
	}
	if old.Host != cur.Host {
		res.Notes = append(res.Notes, fmt.Sprintf("host changed (%s/%s/%dcpu/%s → %s/%s/%dcpu/%s): deltas may reflect the machine, not the code",
			old.Host.OS, old.Host.Arch, old.Host.CPUs, old.Host.Go,
			cur.Host.OS, cur.Host.Arch, cur.Host.CPUs, cur.Host.Go))
	}
	oldRows := make(map[string]TrajectoryRow, len(old.Rows))
	for _, r := range old.Rows {
		oldRows[r.Name] = r
	}
	seen := make(map[string]bool, len(cur.Rows))
	for _, nr := range cur.Rows {
		seen[nr.Name] = true
		or, ok := oldRows[nr.Name]
		if !ok {
			res.Notes = append(res.Notes, fmt.Sprintf("row %q is new (no baseline)", nr.Name))
			continue
		}
		keys := make([]string, 0, len(nr.Metrics))
		for k := range nr.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			nv := nr.Metrics[k]
			ov, ok := or.Metrics[k]
			if !ok {
				res.Notes = append(res.Notes, fmt.Sprintf("row %q: metric %q has no baseline", nr.Name, k))
				continue
			}
			d := TrajectoryDelta{Row: nr.Name, Metric: k, Old: ov, New: nv}
			switch {
			case ov == 0 && nv == 0:
				d.Ratio = 1
			case ov == 0:
				d.Ratio = 0 // undefined; graded via notes below
			default:
				d.Ratio = nv / ov
			}
			dir := metricDirection(k)
			switch {
			case dir == neutralMetric:
				if d.Ratio != 1 && (ov != nv) {
					res.Notes = append(res.Notes, fmt.Sprintf("row %q: configuration metric %q moved %v → %v (runs may not be comparable)", nr.Name, k, ov, nv))
				}
			case ov == 0:
				if nv != 0 {
					res.Notes = append(res.Notes, fmt.Sprintf("row %q: metric %q moved off a zero baseline to %v", nr.Name, k, nv))
				}
			case dir == lowerIsBetter:
				d.Regression = d.Ratio > 1+threshold
				d.Improved = d.Ratio < 1-threshold
			case dir == higherIsBetter:
				d.Regression = d.Ratio < 1-threshold
				d.Improved = d.Ratio > 1+threshold
			}
			res.Deltas = append(res.Deltas, d)
		}
		var gone []string
		for k := range or.Metrics {
			if _, ok := nr.Metrics[k]; !ok {
				gone = append(gone, k)
			}
		}
		sort.Strings(gone)
		for _, k := range gone {
			res.Notes = append(res.Notes, fmt.Sprintf("row %q: metric %q disappeared from the new run", nr.Name, k))
		}
	}
	for _, or := range old.Rows {
		if !seen[or.Name] {
			res.Notes = append(res.Notes, fmt.Sprintf("row %q disappeared from the new run", or.Name))
		}
	}
	return res
}

// Render formats the comparison as a human-readable report. Verbose
// includes unchanged metrics; otherwise only regressions, improvements,
// and notes appear.
func (c *CompareResult) Render(verbose bool) string {
	var b strings.Builder
	for _, d := range c.Deltas {
		mark := ""
		switch {
		case d.Regression:
			mark = "REGRESSION"
		case d.Improved:
			mark = "improved"
		case !verbose:
			continue
		}
		fmt.Fprintf(&b, "%-10s %s/%s: %g → %g (%+.1f%%)\n",
			mark, d.Row, d.Metric, d.Old, d.New, (d.Ratio-1)*100)
	}
	for _, n := range c.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if c.Regressions() == 0 {
		b.WriteString("no regressions\n")
	} else {
		fmt.Fprintf(&b, "%d regression(s) beyond threshold\n", c.Regressions())
	}
	return b.String()
}

// CompareFiles loads two snapshots and diffs them — the programmatic
// form of `aspen-bench -compare` / scripts/bench-compare.sh.
func CompareFiles(oldPath, newPath string, threshold float64) (*CompareResult, error) {
	old, err := ReadTrajectory(oldPath)
	if err != nil {
		return nil, err
	}
	cur, err := ReadTrajectory(newPath)
	if err != nil {
		return nil, err
	}
	return Compare(old, cur, threshold), nil
}
