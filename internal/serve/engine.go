package serve

import "fmt"

// Fast-path dispatch. With Options.Engine = EngineFast (the default),
// each grammar's pooled parsers run on internal/engine's lowered
// transition tables instead of the cycle-accurate simulator. Every
// request runs on its own pooled parser and engine.Exec, one FeedAll
// call per chunk; concurrent requests share only the read-only
// engine.Program (DESIGN.md §11 says why serving is single-lane).
//
// The simulator remains ground truth and keeps three jobs, each counted
// on engine_fallback_total{reason}: Engine = EngineSim pins every
// request to it ("config"); chaos/verify-guarded parses always run on
// it because detection needs execution hooks ("chaos"); and a machine
// the engine cannot lower serves on it ("compile"). Either backend
// writes the same sealed checkpoints, so durable sessions survive an
// -engine flip across restarts.

// Engine backend names for Options.Engine.
const (
	EngineFast = "fast"
	EngineSim  = "sim"
)

// ParseEngine validates an engine selector, normalizing "" to the
// default (EngineFast). cmd/aspend uses it for -engine flag validation.
func ParseEngine(s string) (string, error) {
	switch s {
	case "", EngineFast:
		return EngineFast, nil
	case EngineSim:
		return EngineSim, nil
	}
	return "", fmt.Errorf("unknown engine %q (valid: fast, sim)", s)
}
