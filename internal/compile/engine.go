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
