package stream

import (
	"errors"
	"fmt"

	"aspen/internal/core"
	"aspen/internal/lexer"
)

// Checkpoint is a resumable snapshot of a streaming parse: the
// machine-level core.Checkpoint plus the lexer boundary state (mode,
// untokenized tail, stream offset) and the parser's own counters.
// Restoring it and re-writing the same byte stream from the checkpoint
// onward reproduces the uninterrupted parse exactly
// (TestStreamCheckpointReplay) — the property the serving layer's
// recovery loop relies on when it rolls a fault-corrupted request back
// and replays the bytes buffered since the last clean point.
//
// Like core.Checkpoint, the snapshot carries an integrity seal: Digest
// covers the stream-level fields (the machine fields are sealed by
// Exec.Digest, which this seal also folds in), so a snapshot corrupted
// between Checkpoint and Restore is rejected with
// core.ErrCheckpointCorrupt instead of being replayed.
type Checkpoint struct {
	Exec core.Checkpoint

	Mode     string
	Tail     []byte
	Offset   int
	Tokens   int
	LexStats lexer.Stats
	Jammed   bool
	JamPos   int

	// Machine is the HDPDA.Fingerprint of the machine that took the
	// snapshot. Checkpoint state embeds raw state IDs and stack
	// symbols, which only mean anything on the exact machine build that
	// wrote them — Restore refuses a snapshot stamped with a different
	// fingerprint (ErrMachineMismatch) rather than resuming into
	// silently wrong behavior. Compilation is deterministic
	// (TestCompileDeterministic), so a restart that recompiles the same
	// grammar reproduces the same fingerprint and resumes cleanly.
	Machine uint64

	// Digest is the stream-level FNV-1a seal, written by
	// Parser.Checkpoint (or Seal) and verified by Parser.Restore.
	Digest uint64
}

// streamFNV mirrors core's FNV-1a fold for the stream-level fields.
type streamFNV uint64

func (h *streamFNV) byte(b byte) { *h = (*h ^ streamFNV(b)) * 0x100000001b3 }
func (h *streamFNV) int(v int) {
	u := uint64(int64(v))
	for i := 0; i < 8; i++ {
		h.byte(byte(u >> (8 * i)))
	}
}
func (h *streamFNV) bool(b bool) {
	if b {
		h.byte(1)
	} else {
		h.byte(0)
	}
}

func (cp *Checkpoint) computeDigest() uint64 {
	h := streamFNV(0xcbf29ce484222325)
	h.int(int(cp.Exec.Digest))
	h.int(len(cp.Mode))
	for i := 0; i < len(cp.Mode); i++ {
		h.byte(cp.Mode[i])
	}
	h.int(len(cp.Tail))
	for _, b := range cp.Tail {
		h.byte(b)
	}
	h.int(cp.Offset)
	h.int(cp.Tokens)
	h.int(cp.LexStats.Bytes)
	h.int(cp.LexStats.Tokens)
	h.int(cp.LexStats.ScanCycles)
	h.int(cp.LexStats.HandoffCycles)
	h.bool(cp.Jammed)
	h.int(cp.JamPos)
	h.int(int(cp.Machine))
	return uint64(h)
}

// Seal recomputes and stores the stream-level integrity digest.
// Parser.Checkpoint seals automatically.
func (cp *Checkpoint) Seal() { cp.Digest = cp.computeDigest() }

// Verify reports whether the stream-level fields still match the seal
// (the machine-level fields are verified separately by core's Restore).
func (cp *Checkpoint) Verify() bool { return cp.Digest == cp.computeDigest() }

// Checkpoint copies the parser's resumable state into cp, reusing cp's
// buffers, and seals it. The parser must not have failed or been
// closed: checkpoints mark known-good progress, and the recovery layer
// only takes them on clean boundaries.
func (p *Parser) Checkpoint(cp *Checkpoint) {
	p.exec.Checkpoint(&cp.Exec)
	cp.Mode = p.lx.ModeName(p.mode)
	cp.Tail = append(cp.Tail[:0], p.tail...)
	cp.Offset = p.offset
	cp.Tokens = p.tokens
	cp.LexStats = p.lexStats
	cp.Jammed = p.jammed
	cp.JamPos = p.jamPos
	cp.Machine = p.mfp
	cp.Seal()
}

// ErrMachineMismatch reports a restore attempted on a machine build
// other than the one that took the snapshot.
var ErrMachineMismatch = errors.New("stream: checkpoint was taken on a different machine build")

// Restore rewinds the parser to cp, clearing any error or close mark
// picked up since — rollback exists precisely to discard a corrupted or
// aborted continuation. Both integrity seals are checked first: a
// snapshot that fails either answers an error wrapping
// core.ErrCheckpointCorrupt and leaves the parser untouched, so the
// recovery layer fails the request instead of replaying garbage. A
// snapshot from another machine build, or naming a lexer mode this
// lexer lacks, is refused with an error before anything changes.
// Telemetry keeps accumulating across the rollback (the counters
// measure work performed, and replayed work is work), but the per-run
// delta trackers rewind so post-restore deltas stay non-negative.
func (p *Parser) Restore(cp *Checkpoint) error {
	if !cp.Verify() {
		return fmt.Errorf("stream: %w", core.ErrCheckpointCorrupt)
	}
	if cp.Machine != p.mfp {
		return fmt.Errorf("%w (snapshot %016x, this build %016x)", ErrMachineMismatch, cp.Machine, p.mfp)
	}
	mode, ok := p.lx.Mode(cp.Mode)
	if !ok {
		return fmt.Errorf("stream: checkpoint lexer mode %q is not a mode of this lexer", cp.Mode)
	}
	if err := p.exec.Restore(&cp.Exec); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	p.mode = mode
	p.tail = append(p.tail[:0], cp.Tail...)
	p.offset = cp.Offset
	p.tokens = cp.Tokens
	p.lexStats = cp.LexStats
	p.jammed = cp.Jammed
	p.jamPos = cp.JamPos
	p.closed = false
	p.err = nil
	if p.tm != nil {
		res := p.exec.Result()
		p.tm.prevTokens = p.tokens
		p.tm.prevCycles = res.Consumed + res.EpsilonStalls
	}
	return nil
}
