// Command aspenc is the ASPEN grammar compiler: it transforms an LR(1)
// grammar (in the BNF-like DSL of internal/grammar, or one of the four
// built-in evaluation languages) into a homogeneous deterministic
// pushdown automaton, optionally optimized with ε-merging and multipop,
// and emits it as MNRL JSON together with Table III/IV-style statistics.
//
// With -check it instead runs the serving stack's admission pipeline
// (internal/admit) offline: the machine is parsed in its upload format
// (-format grammar|mnrl|pda), statically analyzed, and the verdict is
// printed as the same machine-readable JSON the server's upload API
// returns. Exit status 0 means admitted, 1 means rejected — an upload
// that passes aspenc -check locally is exactly an upload the server
// will admit.
//
// Usage:
//
//	aspenc -grammar file.g -O2 -o machine.mnrl
//	aspenc -lang XML -O0
//	aspenc -check -format pda -name calc machine.pda
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"aspen"
	"aspen/internal/admit"
	"aspen/internal/telemetry"
	"aspen/internal/viz"
)

var sess *telemetry.Session

func main() {
	var (
		grammarPath = flag.String("grammar", "", "grammar file in the ASPEN DSL")
		langName    = flag.String("lang", "", "built-in language instead of -grammar (Cool, DOT, JSON, XML)")
		optLevel    = flag.Int("O", 2, "optimization level: 0 = none, 1 = ε-merging, 2 = ε-merging + multipop")
		resolve     = flag.Bool("resolve-sr", false, "resolve shift/reduce conflicts in favor of shift (yacc default)")
		out         = flag.String("o", "", "write MNRL JSON to this file (default: stdout off, stats only)")
		dot         = flag.String("dot", "", "write a GraphViz rendering of the machine to this file")

		check      = flag.Bool("check", false, "run the admission pipeline on the file argument and print the JSON verdict (exit 1 on rejection)")
		format     = flag.String("format", "", "upload format for -check: grammar, mnrl, or pda (default: from the file extension)")
		name       = flag.String("name", "", "machine name for -check (default: the file basename)")
		maxStates  = flag.Int("max-states", 0, "admission ceiling on hDPDA state count for -check (0 = default)")
		maxDepth   = flag.Int("max-depth", 0, "admission ceiling on proven stack depth for -check (0 = default)")
		maxTableKB = flag.Int("max-table-kb", 0, "admission ceiling on engine table KiB for -check (0 = default)")
	)
	tf := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *check {
		os.Exit(runCheck(flag.Arg(0), *name, *format, admit.Limits{
			MaxStates: *maxStates, MaxDepth: *maxDepth, MaxTableKB: *maxTableKB,
		}))
	}

	reg := telemetry.NewRegistry()
	sess = tf.MustStart("aspenc", reg)
	defer sess.MustClose("aspenc")

	opts := aspen.OptNone
	switch *optLevel {
	case 0:
	case 1:
		opts = aspen.OptEpsilonOnly
	case 2:
		opts = aspen.OptAll
	default:
		fatal("invalid -O level %d", *optLevel)
	}
	opts.ResolveShiftReduce = *resolve

	var cm *aspen.Compiled
	var err error
	switch {
	case *langName != "":
		var l *aspen.Language
		if *langName == "MiniC" {
			l = aspen.LangMiniC()
		}
		for _, cand := range aspen.Languages() {
			if cand.Name == *langName {
				l = cand
			}
		}
		if l == nil {
			fatal("unknown language %q (want Cool, DOT, JSON, MiniC, or XML)", *langName)
		}
		cm, err = l.Compile(opts)
	case *grammarPath != "":
		src, rerr := os.ReadFile(*grammarPath)
		if rerr != nil {
			fatal("%v", rerr)
		}
		g, perr := aspen.ParseGrammar(string(src))
		if perr != nil {
			fatal("%v", perr)
		}
		cm, err = aspen.CompileGrammar(g, opts)
	default:
		fatal("one of -grammar or -lang is required")
	}
	if err != nil {
		fatal("compile: %v", err)
	}

	s := cm.Stats
	publishStats(reg, cm)
	fmt.Printf("grammar      %s\n", cm.Grammar.Name)
	fmt.Printf("tokens       %d\n", s.TokenTypes)
	fmt.Printf("productions  %d\n", s.Productions)
	fmt.Printf("lr states    %d (%s)\n", s.ParsingStates, cm.Table.Mode)
	fmt.Printf("hdpda states %d (raw %d, ε %d, raw ε %d)\n", s.States, s.StatesRaw, s.EpsStates, s.EpsStatesRaw)
	fmt.Printf("compile time %v\n", s.CompileTime)

	if *out != "" {
		data, err := aspen.ExportMNRL(cm.Machine)
		if err != nil {
			fatal("export: %v", err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("wrote        %s (%d bytes)\n", *out, len(data))
	}
	if *dot != "" {
		doc := viz.HDPDA(cm.Machine, viz.Options{})
		if err := os.WriteFile(*dot, []byte(doc), 0o644); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("wrote        %s (%d bytes of DOT)\n", *dot, len(doc))
	}
}

// checkVerdict is the -check output: the admission verdict in the same
// machine-readable shape the server's upload API answers with.
type checkVerdict struct {
	Name        string             `json:"name"`
	Format      string             `json:"format"`
	Admitted    bool               `json:"admitted"`
	StackBound  int                `json:"stackBound,omitempty"`
	States      int                `json:"states,omitempty"`
	TableBytes  int                `json:"tableBytes,omitempty"`
	Fingerprint string             `json:"fingerprint,omitempty"`
	Error       string             `json:"error,omitempty"`
	Diagnostics []admit.Diagnostic `json:"diagnostics,omitempty"`
}

// runCheck runs offline admission on path and prints the JSON verdict.
// Returns the process exit status: 0 admitted, 1 rejected (or unusable
// invocation).
func runCheck(path, name, format string, lim admit.Limits) int {
	emit := func(v checkVerdict) {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	}
	if path == "" {
		fmt.Fprintln(os.Stderr, "aspenc: -check needs a machine file argument")
		return 1
	}
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aspenc: %v\n", err)
		return 1
	}
	base := filepath.Base(path)
	if name == "" {
		name = strings.TrimSuffix(base, filepath.Ext(base))
	}
	if format == "" {
		switch strings.ToLower(filepath.Ext(base)) {
		case ".mnrl", ".json":
			format = admit.FormatMNRL
		case ".pda":
			format = admit.FormatPDA
		default:
			format = admit.FormatGrammar
		}
	}
	res, err := admit.Admit(name, format, src, lim)
	if err != nil {
		v := checkVerdict{Name: name, Format: format, Error: err.Error()}
		if rej, ok := err.(*admit.Rejection); ok {
			v.Diagnostics = rej.Diagnostics
		}
		emit(v)
		return 1
	}
	emit(checkVerdict{
		Name: name, Format: format, Admitted: true,
		StackBound:  res.StackBound,
		States:      res.States,
		TableBytes:  res.TableBytes,
		Fingerprint: telemetry.TraceIDString(res.Language.Prebuilt.Fingerprint()),
	})
	return 0
}

// publishStats exposes the Table III/IV compile statistics through the
// telemetry registry and emits one summary event to -trace-out.
func publishStats(reg *telemetry.Registry, cm *aspen.Compiled) {
	s := cm.Stats
	for name, v := range map[string]int{
		"aspenc_token_types":      s.TokenTypes,
		"aspenc_productions":      s.Productions,
		"aspenc_lr_states":        s.ParsingStates,
		"aspenc_hdpda_states":     s.States,
		"aspenc_hdpda_states_raw": s.StatesRaw,
		"aspenc_eps_states":       s.EpsStates,
		"aspenc_eps_states_raw":   s.EpsStatesRaw,
	} {
		reg.Gauge(name, "grammar compile statistic (paper Tables III/IV)").SetInt(int64(v))
	}
	reg.Gauge("aspenc_compile_seconds", "grammar compile wall time").Set(s.CompileTime.Seconds())
	if sess.Tracing() {
		sess.Sink().Emit(map[string]any{
			"event": "compile", "grammar": cm.Grammar.Name,
			"states": s.States, "states_raw": s.StatesRaw,
			"eps_states": s.EpsStates, "lr_states": s.ParsingStates,
			"compile_ns": s.CompileTime.Nanoseconds(),
		})
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "aspenc: "+format+"\n", args...)
	if sess != nil {
		sess.Close()
	}
	os.Exit(1)
}
