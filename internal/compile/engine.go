package compile

import (
	"sync"

	"aspen/internal/engine"
)

// Fast-path lowering. A Compiled machine can additionally be lowered
// into internal/engine's flattened transition tables — the hook the
// serving layer uses to route requests through the fast-path engine
// instead of the cycle-accurate simulator. The lowering is pure table
// construction over the already-built hDPDA, done once per Compiled and
// cached on it: tenants share one Program across every pooled
// execution, and the tables retire with the Compiled they were lowered
// from.

// engineCache is the once-per-Compiled lowering state.
type engineCache struct {
	once sync.Once
	prog *engine.Program
	err  error
}

// fingerprintCache is the once-per-Compiled machine fingerprint.
type fingerprintCache struct {
	once sync.Once
	fp   uint64
}

// Engine returns the fast-path engine.Program lowered from this
// machine, building it on first use and caching it for the Compiled's
// lifetime. Lowering re-validates the machine (the dispatch tables
// require the determinism condition); a machine the engine cannot
// lower reports the same error on every call, and it cannot be served:
// serve.New fails on it and admission rejects it as an upload.
func (c *Compiled) Engine() (*engine.Program, error) {
	c.eng.once.Do(func() {
		c.eng.prog, c.eng.err = engine.Compile(c.Machine)
	})
	return c.eng.prog, c.eng.err
}

// Fingerprint returns Machine.Fingerprint, hashing the machine on first
// use and caching the digest for the Compiled's lifetime under the same
// assumption Engine makes: the machine is not mutated once it is
// served. Every parser a pool builds stamps it into its checkpoints, so
// a pool refill after a GC must not hash the whole machine again.
func (c *Compiled) Fingerprint() uint64 {
	c.fp.once.Do(func() { c.fp.fp = c.Machine.Fingerprint() })
	return c.fp.fp
}
