package bench

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func sampleTable() *Table {
	return &Table{
		ID:     "serve",
		Title:  "sample",
		Header: []string{"Grammar", "Fabric banks", "req/s", "MB/s", "µs/req", "ns/KiB", "allocs/req"},
		Rows: [][]string{
			{"JSON", "16", "1200", "37.50", "830", "26000", "210"},
			{"XML", "16", "900", "28.12", "1100", "35000", "250"},
		},
	}
}

func TestTrajectoryFromTable(t *testing.T) {
	tr := NewTrajectory(sampleTable(), "abc1234", map[string]string{"size": "32768"})
	if tr.Schema != TrajectorySchema || tr.Table != "serve" || tr.Commit != "abc1234" {
		t.Fatalf("metadata: %+v", tr)
	}
	if tr.Host.OS == "" || tr.Host.Go == "" || tr.Host.CPUs < 1 {
		t.Fatalf("host metadata incomplete: %+v", tr.Host)
	}
	if len(tr.Rows) != 2 {
		t.Fatalf("rows: %d, want 2", len(tr.Rows))
	}
	m := tr.Rows[0].Metrics
	// µs/req must survive sanitization with the unit intact (µ → u).
	for key, want := range map[string]float64{
		"fabric_banks": 16, "req_s": 1200, "mb_s": 37.50,
		"us_req": 830, "ns_kib": 26000, "allocs_req": 210,
	} {
		if m[key] != want {
			t.Errorf("metric %q = %v, want %v (all: %v)", key, m[key], want, m)
		}
	}
}

func TestTrajectoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := NewTrajectory(sampleTable(), "", nil)
	path := filepath.Join(dir, TrajectoryFile(tr.Table))
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Table != tr.Table || len(back.Rows) != len(tr.Rows) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Rows[1].Metrics["req_s"] != 900 {
		t.Fatalf("round trip value: %v", back.Rows[1].Metrics)
	}

	// Unknown schema is refused, not misread.
	bad := *tr
	bad.Schema = TrajectorySchema + 1
	if err := bad.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrajectory(path); err == nil {
		t.Fatal("future schema accepted")
	}
}

func TestMetricDirection(t *testing.T) {
	for key, want := range map[string]int{
		"us_req":       lowerIsBetter,
		"ns_kib":       lowerIsBetter,
		"allocs_req":   lowerIsBetter,
		"req_s":        higherIsBetter,
		"mb_s":         higherIsBetter,
		"clock_mhz":    higherIsBetter,
		"fabric_banks": neutralMetric,
		"requests":     neutralMetric,
		"tokens":       neutralMetric,
		"productions":  neutralMetric,
		"table_kb":     lowerIsBetter,
		"eps_stalls":   lowerIsBetter,
	} {
		if got := metricDirection(key); got != want {
			t.Errorf("metricDirection(%q) = %d, want %d", key, got, want)
		}
	}
}

// TestCommittedMetricDirections pins how bench-compare grades every
// column of the committed perf-trajectory baselines: a new column must
// be added here with its intended direction.
func TestCommittedMetricDirections(t *testing.T) {
	want := map[string]int{
		// BENCH_serve.json
		"allocs_req":   lowerIsBetter,
		"clients":      neutralMetric,
		"contexts":     neutralMetric,
		"fabric_banks": neutralMetric,
		"mb_s":         higherIsBetter,
		"ns_kib":       lowerIsBetter,
		"req_s":        higherIsBetter,
		"requests":     neutralMetric,
		"us_req":       lowerIsBetter,
		// BENCH_engine.json
		"engine_exec_ns_kib":  lowerIsBetter,
		"engine_parse_ns_kib": lowerIsBetter,
		"exec_speedup":        higherIsBetter,
		"parse_speedup":       higherIsBetter,
		"scan_ns_kib":         lowerIsBetter,
		"sim_exec_ns_kib":     lowerIsBetter,
		"sim_parse_ns_kib":    lowerIsBetter,
		"states":              neutralMetric,
		"table_kb":            lowerIsBetter,
		"tokens":              neutralMetric,
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed BENCH_*.json baselines found (%v)", err)
	}
	for _, f := range files {
		tr, err := ReadTrajectory(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tr.Rows {
			for key := range row.Metrics {
				dir, ok := want[key]
				if !ok {
					t.Errorf("%s row %q: column %q has no pinned direction", filepath.Base(f), row.Name, key)
					continue
				}
				if got := metricDirection(key); got != dir {
					t.Errorf("%s: metricDirection(%q) = %d, want %d", filepath.Base(f), key, got, dir)
				}
			}
		}
	}
}

// perturb returns a baseline trajectory and a copy with one metric
// scaled.
func perturb(row int, key string, factor float64) (old, cur *Trajectory) {
	old = NewTrajectory(sampleTable(), "", nil)
	cur = NewTrajectory(sampleTable(), "", nil)
	cur.Rows[row].Metrics[key] *= factor
	return old, cur
}

func TestCompareFlagsRegressions(t *testing.T) {
	// 30% slower per-request latency: a lower-is-better metric rising
	// beyond 15% must be flagged.
	old, cur := perturb(0, "us_req", 1.30)
	res := Compare(old, cur, 0.15)
	if res.Regressions() != 1 {
		t.Fatalf("latency +30%%: %d regressions, want 1\n%s", res.Regressions(), res.Render(true))
	}

	// 30% lower throughput: higher-is-better falling is a regression too.
	old, cur = perturb(1, "mb_s", 0.70)
	if res := Compare(old, cur, 0.15); res.Regressions() != 1 {
		t.Fatalf("throughput -30%%: %d regressions, want 1", res.Regressions())
	}

	// Improvement in the good direction is not a regression.
	old, cur = perturb(0, "us_req", 0.70)
	if res := Compare(old, cur, 0.15); res.Regressions() != 0 {
		t.Fatalf("latency -30%% flagged as regression:\n%s", res.Render(true))
	}

	// Movement within the threshold is noise, not a regression.
	old, cur = perturb(0, "req_s", 0.90)
	if res := Compare(old, cur, 0.15); res.Regressions() != 0 {
		t.Fatalf("10%% drift flagged:\n%s", res.Render(true))
	}

	// Configuration drift is a note, never a regression.
	old, cur = perturb(0, "fabric_banks", 2)
	res = Compare(old, cur, 0.15)
	if res.Regressions() != 0 || len(res.Notes) == 0 {
		t.Fatalf("config drift: regressions=%d notes=%v", res.Regressions(), res.Notes)
	}

	// A disappeared row is surfaced.
	old = NewTrajectory(sampleTable(), "", nil)
	cur = NewTrajectory(sampleTable(), "", nil)
	cur.Rows = cur.Rows[:1]
	res = Compare(old, cur, 0.15)
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "disappeared") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing-row note absent: %v", res.Notes)
	}

	// A metric dropped from a surviving row is surfaced too, without
	// counting as a regression: deleting a column must not hide one.
	old = NewTrajectory(sampleTable(), "", nil)
	cur = NewTrajectory(sampleTable(), "", nil)
	delete(cur.Rows[0].Metrics, "us_req")
	res = Compare(old, cur, 0.15)
	want := fmt.Sprintf("row %q: metric %q disappeared from the new run", cur.Rows[0].Name, "us_req")
	if res.Regressions() != 0 || !slices.Contains(res.Notes, want) {
		t.Fatalf("dropped metric: regressions=%d, want note %q in %v", res.Regressions(), want, res.Notes)
	}
}

// TestBenchCompareScript pins the shell entry point's exit codes with
// fixture files: 0 on a clean diff, 1 on a synthetic >15% regression,
// 2 on usage errors.
func TestBenchCompareScript(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go build via the script")
	}
	script, err := filepath.Abs(filepath.Join("..", "..", "scripts", "bench-compare.sh"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(script); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	samePath := filepath.Join(dir, "same.json")
	regPath := filepath.Join(dir, "reg.json")

	base := NewTrajectory(sampleTable(), "", nil)
	if err := base.WriteFile(oldPath); err != nil {
		t.Fatal(err)
	}
	if err := base.WriteFile(samePath); err != nil {
		t.Fatal(err)
	}
	worse := NewTrajectory(sampleTable(), "", nil)
	worse.Rows[0].Metrics["ns_kib"] *= 1.5
	if err := worse.WriteFile(regPath); err != nil {
		t.Fatal(err)
	}

	runScript := func(args ...string) int {
		cmd := exec.Command("bash", append([]string{script}, args...)...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			return 0
		}
		if ee, ok := err.(*exec.ExitError); ok {
			t.Logf("bench-compare.sh %v → %d\n%s", args, ee.ExitCode(), out)
			return ee.ExitCode()
		}
		t.Fatalf("running %s: %v\n%s", script, err, out)
		return -1
	}

	if code := runScript(oldPath, samePath); code != 0 {
		t.Errorf("identical snapshots exited %d, want 0", code)
	}
	if code := runScript(oldPath, regPath); code != 1 {
		t.Errorf("50%% ns/KiB regression exited %d, want 1", code)
	}
	if code := runScript(oldPath); code != 2 {
		t.Errorf("missing argument exited %d, want 2", code)
	}
}
