package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Result metadata. Every run records the host, the code it measured, the
// seed and the workload parameters, and appends them to
// .bench_build/results.jsonl; a run whose host or parameters differ from
// the previous run of the same workload is flagged as not comparable.

func runMeta(w *workload, seed int64, dur time.Duration, traced bool, clients int, ps phaseStats) map[string]any {
	host := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
	}
	params := map[string]any{"seconds": dur.Seconds(), "clients": clients, "warmupSeconds": 1}
	for k, v := range w.params {
		params[k] = v
	}
	return map[string]any{
		"workload":        w.name,
		"seed":            seed,
		"trace":           traced,
		"commit":          commit(),
		"host":            host,
		"params":          params,
		"rssPeakIsWindow": ps.rssReset,
		"comparable":      comparableKey(host, params),
	}
}

// comparableKey digests what must match for two results to be compared.
func comparableKey(host, params map[string]any) string {
	b, _ := json.Marshal([]any{host, params}) // maps of plain values always encode
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// flagIncomparable appends meta to the result history and, when the
// previous run of the same workload had another host or parameter key,
// returns a note saying so.
func flagIncomparable(meta map[string]any) string {
	path := filepath.Join(outDir, "results.jsonl")
	var prev map[string]any
	if f, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var m map[string]any
			if json.Unmarshal(sc.Bytes(), &m) == nil && m["workload"] == meta["workload"] && m["trace"] == meta["trace"] {
				prev = m
			}
		}
		f.Close()
	}
	if b, err := json.Marshal(meta); err == nil {
		if f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
			f.Write(append(b, '\n'))
			f.Close()
		}
	}
	if prev != nil && prev["comparable"] != meta["comparable"] {
		return "host or workload parameters differ from the previous " + meta["workload"].(string) +
			" result (commit " + str(prev["commit"]) + "); the two are not comparable"
	}
	return ""
}

func str(v any) string {
	s, _ := v.(string)
	return s
}

// commit identifies the measured code: the git HEAD when the checkout is
// a repository, and always a digest of the source tree (checkouts made
// for benchmarking need not carry .git).
func commit() string {
	id := "tree-" + treeDigest()
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				ref = strings.TrimSpace(string(b))
			}
		}
		id = ref + " " + id
	}
	return id
}

// treeDigest hashes the paths and contents of the checkout's files,
// skipping dot-directories (.git, .bench_build).
func treeDigest() string {
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
