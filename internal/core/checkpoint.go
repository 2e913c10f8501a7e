package core

import (
	"errors"
	"fmt"
)

// ErrCheckpointCorrupt reports that a checkpoint failed its integrity
// digest: the snapshot bytes were corrupted between Checkpoint and
// Restore (the fabric's SRAM has no parity — see internal/arch — so
// checkpoint storage is as corruptible as live state). Restore rejects
// the snapshot instead of replaying garbage; the recovery layer must
// fail the request rather than resume from it.
var ErrCheckpointCorrupt = errors.New("core: checkpoint failed its integrity digest")

// Checkpoint is a resumable snapshot of an Execution: active state,
// stack contents, input position, the ε-run counter, and the statistics
// accumulated so far. Because the machine is deterministic, restoring a
// checkpoint and re-feeding the same symbols reproduces the
// uninterrupted run exactly (TestCheckpointReplayEquivalence) — which
// turns deterministic re-execution into a recovery primitive: a run
// corrupted by a hardware fault is rolled back to its last checkpoint
// and replayed on a healthy context.
//
// A Checkpoint owns its buffers. Checkpoint/Restore reuse them across
// calls, so a long-lived (checkpoint, execution) pair reaches steady
// state with zero per-checkpoint allocations once the buffers have
// grown to the run's high-water marks.
type Checkpoint struct {
	Cur    StateID
	Stack  []Symbol
	Pos    int
	EpsSeq int
	Res    Result

	// Digest is an FNV-1a self-seal over every field above, written by
	// Execution.Checkpoint (or Seal) and verified by Restore. A restore
	// whose recomputed digest disagrees returns ErrCheckpointCorrupt —
	// a corrupted snapshot is rejected, never replayed.
	Digest uint64
}

// FNV-1a parameters, shared with internal/verify's trace digest.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

type fnv64 uint64

func (h *fnv64) byte(b byte) { *h = (*h ^ fnv64(b)) * fnvPrime64 }
func (h *fnv64) bool(b bool) {
	if b {
		h.byte(1)
	} else {
		h.byte(0)
	}
}
func (h *fnv64) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}
func (h *fnv64) int(v int) { h.u64(uint64(int64(v))) }

// computeDigest folds every semantic field. It is allocation-free so
// the checkpoint buffer-reuse contract (TestCheckpointBufferReuse)
// survives the seal.
func (cp *Checkpoint) computeDigest() uint64 {
	h := fnv64(fnvOffset64)
	h.int(int(cp.Cur))
	h.int(cp.Pos)
	h.int(cp.EpsSeq)
	h.int(len(cp.Stack))
	for _, s := range cp.Stack {
		h.byte(byte(s))
	}
	h.bool(cp.Res.Accepted)
	h.int(cp.Res.Consumed)
	h.bool(cp.Res.Jammed)
	h.int(cp.Res.EpsilonStalls)
	h.int(cp.Res.Steps)
	h.int(int(cp.Res.FinalState))
	h.int(cp.Res.MaxStackDepth)
	h.int(cp.Res.ReportCount)
	h.int(len(cp.Res.Reports))
	for _, r := range cp.Res.Reports {
		h.int(r.Pos)
		h.int(int(r.State))
		h.int(int(r.Code))
	}
	return uint64(h)
}

// Seal recomputes and stores the integrity digest. Execution.Checkpoint
// seals automatically; call Seal after mutating a checkpoint by hand
// (tests, codecs).
func (cp *Checkpoint) Seal() { cp.Digest = cp.computeDigest() }

// Verify reports whether the checkpoint still matches its seal.
func (cp *Checkpoint) Verify() bool { return cp.Digest == cp.computeDigest() }

// Check reports whether cp can be restored on a machine of numStates
// states: it must pass its seal, name one of those states and hold at
// least the bottom stack entry. A snapshot can carry a valid seal yet
// belong to a different machine (a durable checkpoint restored after a
// grammar swap), or be forged with an empty stack; resuming either
// would index out of range, so both are ErrCheckpointCorrupt.
func (cp *Checkpoint) Check(numStates int) error {
	if !cp.Verify() {
		return ErrCheckpointCorrupt
	}
	if cp.Cur < 0 || int(cp.Cur) >= numStates {
		return fmt.Errorf("%w: state %d outside this machine's %d states",
			ErrCheckpointCorrupt, cp.Cur, numStates)
	}
	if len(cp.Stack) == 0 {
		return fmt.Errorf("%w: empty stack (no ⊥ entry)", ErrCheckpointCorrupt)
	}
	return nil
}

// Checkpoint copies the execution's resumable state into cp,
// overwriting whatever cp held, and seals it. cp's slices are reused.
func (e *Execution) Checkpoint(cp *Checkpoint) {
	cp.Cur = e.cur
	cp.Stack = append(cp.Stack[:0], e.stack...)
	cp.Pos = e.pos
	cp.EpsSeq = e.epsSeq
	reports := append(cp.Res.Reports[:0], e.res.Reports...)
	cp.Res = e.res
	cp.Res.Reports = reports
	cp.Seal()
}

// Restore rewinds the execution to cp after verifying the seal; a
// corrupted snapshot returns ErrCheckpointCorrupt and leaves the
// execution untouched. The execution must run the same machine the
// checkpoint was taken from (stack depth and ε-budget are properties of
// the execution and are kept). The execution's buffers are reused; cp
// is not aliased and may be restored again later.
func (e *Execution) Restore(cp *Checkpoint) error {
	if err := cp.Check(len(e.M.States)); err != nil {
		return err
	}
	e.cur = cp.Cur
	e.stack = append(e.stack[:0], cp.Stack...)
	e.pos = cp.Pos
	e.epsSeq = cp.EpsSeq
	reports := append(e.res.Reports[:0], cp.Res.Reports...)
	e.res = cp.Res
	e.res.Reports = reports
	return nil
}
