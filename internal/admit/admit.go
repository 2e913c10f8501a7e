// Package admit is the admission pipeline for tenant-uploaded machines.
// An upload arrives as source text in one of three formats — the LR
// grammar DSL (internal/grammar + an inline %lex tokenizer section),
// MNRL (internal/mnrl), or the sectioned .pda text format — and is
// admitted to the serving registry only after static analysis proves it
// safe to run: deterministic, complete (it can accept something, and no
// reachable state is a dead end), free of stack underflow, free of
// ε-livelock, and with a *bounded* reachable stack depth. The proven
// depth bound is stamped into the machine, turning the engine's runtime
// stack guard into a verified invariant: an admitted machine can never
// trip the depth-overflow path at all.
//
// Every rejection is machine-readable: a list of Diagnostics, each
// naming the check that failed, the offending state/symbol where one
// exists, and a witness trace. The same pipeline runs server-side
// (POST /v1/admin/grammars), offline (aspenc -check), and at journal
// replay, so a machine admitted once re-admits identically forever.
package admit

import (
	"fmt"
	"strings"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/lang"
)

// Supported upload formats.
const (
	FormatGrammar = "grammar" // LR grammar DSL + %lex tokenizer lines
	FormatMNRL    = "mnrl"    // MNRL JSON (hPDAState nodes)
	FormatPDA     = "pda"     // sectioned .pda text format
)

// Formats lists the supported upload formats.
func Formats() []string { return []string{FormatGrammar, FormatMNRL, FormatPDA} }

// Check names identify which admission check rejected an upload. They
// are the `check` field of every Diagnostic and the label on the
// admit_rejected_total metric.
const (
	// CheckLimits: the upload violates a resource ceiling (source size,
	// state count, alphabet size, table bytes) or the analysis work cap.
	CheckLimits = "limits"
	// CheckParse: the source failed to parse in its declared format.
	CheckParse = "parse"
	// CheckDeterminism: two transitions can be simultaneously enabled.
	CheckDeterminism = "determinism"
	// CheckCompleteness: the machine accepts nothing, or a reachable
	// state can never reach acceptance (a dead end that jams every input
	// that touches it).
	CheckCompleteness = "completeness"
	// CheckEpsilon: an ε-livelock — a reachable configuration re-enters
	// itself through ε-moves without consuming input.
	CheckEpsilon = "epsilon"
	// CheckDepth: the reachable stack depth is unbounded or exceeds the
	// admission limit.
	CheckDepth = "depth"
	// CheckUnderflow: a reachable configuration pops more symbols than
	// the stack holds.
	CheckUnderflow = "underflow"
)

// Checks lists every check name a Diagnostic can carry — the label
// vocabulary of the admit_rejected_total metric.
func Checks() []string {
	return []string{CheckLimits, CheckParse, CheckDeterminism,
		CheckCompleteness, CheckEpsilon, CheckDepth, CheckUnderflow}
}

// Limits are the admission resource ceilings. Zero fields take the
// defaults below.
type Limits struct {
	// MaxStates caps hDPDA state count after construction.
	MaxStates int `json:"max_states,omitempty"`
	// MaxDepth caps the proven stack depth bound (excluding ⊥).
	MaxDepth int `json:"max_depth,omitempty"`
	// MaxTableKB caps the fast-path engine's lowered table size.
	MaxTableKB int `json:"max_table_kb,omitempty"`
}

// Default and hard-maximum ceilings. Requested limits are clamped to
// the hard maxima so a tenant cannot ask for more than the fabric
// provisions.
const (
	DefaultMaxStates  = 4096
	DefaultMaxDepth   = core.DefaultStackDepth // 256, the provisioned stack
	DefaultMaxTableKB = 8192
	// MaxSourceBytes caps upload source size; it matches the journal
	// codec's per-record source ceiling so every admitted upload is
	// journalable.
	MaxSourceBytes = 256 << 10
	// maxRawAlphabet is the densest input alphabet a raw (MNRL/.pda)
	// machine may use: token codes 2..255 (0 is unused, 1 is ⊣).
	maxRawAlphabet = 254
)

// Normalize fills defaults and clamps to the hard maxima.
func (l Limits) Normalize() Limits {
	if l.MaxStates <= 0 || l.MaxStates > DefaultMaxStates {
		l.MaxStates = DefaultMaxStates
	}
	if l.MaxDepth <= 0 || l.MaxDepth > DefaultMaxDepth {
		l.MaxDepth = DefaultMaxDepth
	}
	if l.MaxTableKB <= 0 || l.MaxTableKB > DefaultMaxTableKB {
		l.MaxTableKB = DefaultMaxTableKB
	}
	return l
}

// Diagnostic is one machine-readable admission finding.
type Diagnostic struct {
	// Check is the admission check that produced this finding (one of
	// the Check* constants).
	Check string `json:"check"`
	// Message is the human-readable statement of the defect.
	Message string `json:"message"`
	// State names the offending state (label or id), when one exists.
	State string `json:"state,omitempty"`
	// Symbol names the offending input or stack symbol, when one exists.
	Symbol string `json:"symbol,omitempty"`
	// Line is the 1-based source line, for parse-stage findings.
	Line int `json:"line,omitempty"`
	// Witness is a trace demonstrating the defect: a transition
	// sequence, a growing stack cycle, or an ε-loop.
	Witness []string `json:"witness,omitempty"`
}

// Rejection is the admission verdict for a machine that failed. It
// implements error; the Diagnostics slice is the machine-readable body
// the server returns and aspenc -check prints.
type Rejection struct {
	Name        string       `json:"name"`
	Format      string       `json:"format"`
	Diagnostics []Diagnostic `json:"diagnostics"`
}

func (r *Rejection) Error() string {
	if len(r.Diagnostics) == 0 {
		return fmt.Sprintf("admit %s: rejected", r.Name)
	}
	d := r.Diagnostics[0]
	var b strings.Builder
	fmt.Fprintf(&b, "admit %s: rejected by %s check: %s", r.Name, d.Check, d.Message)
	if len(r.Diagnostics) > 1 {
		fmt.Fprintf(&b, " (and %d more)", len(r.Diagnostics)-1)
	}
	return b.String()
}

// reject builds a single-diagnostic rejection.
func reject(name, format string, d Diagnostic) *Rejection {
	return &Rejection{Name: name, Format: format, Diagnostics: []Diagnostic{d}}
}

// Result is an admitted machine, ready for the registry.
type Result struct {
	// Language carries the compiled machine (Prebuilt for raw formats)
	// with StackBound and Format stamped.
	Language *lang.Language
	// StackBound is the proven maximum reachable stack depth, ⊥
	// excluded. The machine's StackDepth is set to exactly this, so the
	// runtime guard can only fire if the proof was wrong.
	StackBound int
	// States is the admitted machine's state count.
	States int
	// TableBytes is the lowered engine table footprint.
	TableBytes int
}

// Admit runs the full admission pipeline: parse source in the declared
// format, construct the hDPDA, and statically verify it. On success the
// returned Result carries a *lang.Language the registry can load; on
// failure the error is a *Rejection with machine-readable diagnostics.
// Admission is deterministic: the same (name, format, source, limits)
// always yields the same verdict and, when admitted, a machine with the
// same fingerprint — journal replay depends on this.
func Admit(name, format string, source []byte, lim Limits) (*Result, error) {
	lim = lim.Normalize()
	if name == "" {
		return nil, reject(name, format, Diagnostic{
			Check: CheckParse, Message: "machine name must not be empty"})
	}
	if len(source) == 0 {
		return nil, reject(name, format, Diagnostic{
			Check: CheckParse, Message: "empty source"})
	}
	if len(source) > MaxSourceBytes {
		return nil, reject(name, format, Diagnostic{
			Check:   CheckLimits,
			Message: fmt.Sprintf("source is %d bytes; limit %d", len(source), MaxSourceBytes)})
	}

	var (
		l   *lang.Language
		cm  *compile.Compiled
		rej *Rejection
	)
	switch format {
	case FormatGrammar:
		l, cm, rej = admitGrammar(name, source, lim)
	case FormatMNRL:
		l, cm, rej = admitMNRL(name, source, lim)
	case FormatPDA:
		l, cm, rej = admitPDA(name, source, lim)
	default:
		return nil, reject(name, format, Diagnostic{
			Check: CheckParse,
			Message: fmt.Sprintf("unknown format %q (supported: %s)",
				format, strings.Join(Formats(), ", "))})
	}
	if rej != nil {
		return nil, rej
	}

	if n := cm.Machine.NumStates(); n > lim.MaxStates {
		return nil, reject(name, format, Diagnostic{
			Check:   CheckLimits,
			Message: fmt.Sprintf("machine has %d states; limit %d", n, lim.MaxStates)})
	}

	// Static analysis over the final machine. The bound comes back only
	// when every check passed.
	bound, diags := analyze(cm.Machine, lim)
	if len(diags) > 0 {
		return nil, &Rejection{Name: name, Format: format, Diagnostics: diags}
	}

	// The proven bound becomes the machine's provisioned depth: the
	// runtime overflow guard now backstops a static proof instead of
	// being the primary defense. +1 headroom is deliberate slack for the
	// guard's off-by-nothing boundary — the proof says depth never
	// exceeds bound, and the executor faults only when a push would
	// exceed StackDepth.
	cm.Machine.StackDepth = bound
	if bound == 0 {
		// A machine that never pushes still needs a non-zero depth or
		// the executor substitutes DefaultStackDepth.
		cm.Machine.StackDepth = 1
	}

	// Engine table ceiling. The registry serves unguarded parses only
	// on the lowered engine, so a machine the engine cannot lower, or
	// one that lowers over the ceiling, is a resource rejection.
	prog, err := cm.Engine()
	if err != nil {
		return nil, reject(name, format, Diagnostic{Check: CheckLimits, Message: err.Error()})
	}
	tableBytes := prog.TableBytes()
	if kb := (tableBytes + 1023) / 1024; kb > lim.MaxTableKB {
		return nil, reject(name, format, Diagnostic{
			Check:   CheckLimits,
			Message: fmt.Sprintf("engine tables are %d KiB; limit %d KiB", kb, lim.MaxTableKB)})
	}

	l.StackBound = cm.Machine.StackDepth
	l.Format = format
	l.Prebuilt = cm
	return &Result{
		Language:   l,
		StackBound: cm.Machine.StackDepth,
		States:     cm.Machine.NumStates(),
		TableBytes: tableBytes,
	}, nil
}
