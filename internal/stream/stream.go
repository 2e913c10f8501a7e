// Package stream provides incremental (chunked) parsing on ASPEN — the
// operating regime the paper targets ("processing MBs to GBs of input
// symbols", §IV-B), where the input is streamed through the memory-mapped
// input buffers rather than presented at once. The Parser accepts byte
// chunks of any size, carries the lexer's longest-match boundary state
// and the hDPDA execution across chunks, and produces identical results
// to whole-input parsing.
package stream

import (
	"fmt"
	"io"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/lang"
	"aspen/internal/lexer"
	"aspen/internal/telemetry"
)

// Backend is the machine-execution surface the Parser drives. Two
// implementations exist: *core.Execution (the cycle-accurate simulator,
// ground truth, hook- and fault-capable) and *engine.Exec (the fast
// path lowered into flat tables). They are semantically interchangeable
// — byte-identical outcomes, error classes, and checkpoints — which the
// engine's differential tests pin.
//
// FeedAll is how the Parser feeds the machine, once per chunk and once
// for the endmarker: drain ε-moves, then feed, for each code in order,
// reporting how many codes were consumed, whether the machine jammed on
// codes[fed], and any machine fault (the faulting code stays
// uncounted).
type Backend interface {
	Reset()
	DrainEpsilon() (int, error)
	FeedAll(codes []core.Symbol) (fed int, jammed bool, err error)
	InAccept() bool
	Result() core.Result
	Checkpoint(*core.Checkpoint)
	Restore(*core.Checkpoint) error
}

// Runner has the shape of Backend.FeedAll (see SetRunner).
type Runner func(codes []core.Symbol) (fed int, jammed bool, err error)

// endCodes is the endmarker Close feeds after the last token.
var endCodes = []core.Symbol{compile.EndCode}

// maxKeptTail bounds the tail capacity a parser keeps across Close and
// Reset: four of serving's 32 KiB reads. A tail, or the code scratch
// sized to it, grown past it by one huge lexeme is released rather than
// pinned in a parser pool.
const maxKeptTail = 4 * (32 << 10)

// Parser is an incremental lex+parse pipeline.
type Parser struct {
	l    *lang.Language
	cm   *compile.Compiled
	lx   *lexer.Bound // the lexer, its accept states bound to cm's codes
	exec Backend
	run  Runner // exec.FeedAll unless SetRunner replaced it
	mfp  uint64 // machine fingerprint, stamped into checkpoints

	scan   lexer.Codes // per-chunk codes, reused across Writes
	mode   int         // lexer mode index; 0 is lexer.DefaultMode
	tail   []byte      // bytes not yet safely tokenized
	offset int         // stream offset of tail[0]

	tokens   int
	lexStats lexer.Stats
	jammed   bool
	jamPos   int
	closed   bool
	err      error

	tm *streamMetrics
}

// streamMetrics pre-resolves the per-chunk series so a long streaming
// run can be watched in flight (the paper's MBs-to-GBs regime). Totals
// (bytes, tokens, cycles, stack high-water) are chunking-invariant:
// any chunk-size decomposition of the same input yields the same
// values, which the equivalence tests assert. Chunk-shaped series
// (chunk count, last-chunk gauges, the latency histogram) necessarily
// depend on the chosen chunking.
type streamMetrics struct {
	chunks *telemetry.Counter
	bytes  *telemetry.Counter
	tokens *telemetry.Counter
	cycles *telemetry.Counter

	lastChunkBytes  *telemetry.Gauge
	lastChunkTokens *telemetry.Gauge
	stackHighWater  *telemetry.Gauge

	chunkCycles *telemetry.Histogram

	reg        *telemetry.Registry
	prevTokens int
	prevCycles int
}

// ChunkCycleBuckets bound the per-chunk latency histogram in simulated
// DPDA cycles (symbol cycles + ε-stalls attributable to the chunk).
var ChunkCycleBuckets = []float64{1, 8, 64, 512, 4096, 32768, 262144}

// EnableTelemetry routes the parser's per-chunk gauges and totals into
// reg: stream_* counters accumulate across Write calls, the gauges
// describe the most recent chunk and the stack high-water mark, and the
// histogram tracks per-chunk latency in simulated cycles. Call before
// the first Write.
func (p *Parser) EnableTelemetry(reg *telemetry.Registry) {
	p.tm = &streamMetrics{
		reg:             reg,
		chunks:          reg.Counter("stream_chunks_total", "chunks written to the streaming parser"),
		bytes:           reg.Counter("stream_bytes_total", "input bytes written"),
		tokens:          reg.Counter("stream_tokens_total", "tokens fed to the hDPDA"),
		cycles:          reg.Counter("stream_cycles_total", "simulated DPDA cycles (symbols + ε-stalls)"),
		lastChunkBytes:  reg.Gauge("stream_last_chunk_bytes", "size of the most recent chunk"),
		lastChunkTokens: reg.Gauge("stream_last_chunk_tokens", "tokens completed by the most recent chunk"),
		stackHighWater:  reg.Gauge("stream_stack_high_water", "maximum stack depth so far (excluding ⊥)"),
		chunkCycles:     reg.Histogram("stream_chunk_cycles", "simulated DPDA cycles per chunk", ChunkCycleBuckets),
	}
}

// sync publishes the machine-side deltas accumulated since the last
// call (shared by Write and Close).
func (p *Parser) sync() {
	tm := p.tm
	res := p.exec.Result()
	cycles := res.Consumed + res.EpsilonStalls
	tm.tokens.Add(int64(p.tokens - tm.prevTokens))
	tm.cycles.Add(int64(cycles - tm.prevCycles))
	tm.lastChunkTokens.SetInt(int64(p.tokens - tm.prevTokens))
	tm.chunkCycles.ObserveInt(int64(cycles - tm.prevCycles))
	tm.stackHighWater.Max(float64(res.MaxStackDepth))
	tm.prevTokens = p.tokens
	tm.prevCycles = cycles
}

// Outcome summarizes a completed stream parse.
type Outcome struct {
	Accepted bool
	Tokens   int
	Bytes    int
	LexStats lexer.Stats
	Result   core.Result
}

// NewParser builds a streaming parser for the language using an
// already-compiled machine, backed by the cycle-accurate simulator.
func NewParser(l *lang.Language, cm *compile.Compiled, opts core.ExecOptions) (*Parser, error) {
	return NewParserBackend(l, cm, core.NewExecution(cm.Machine, opts))
}

// NewParserBackend builds a streaming parser driving an explicit
// execution backend (the fast-path engine, or a pre-configured
// simulator execution). The backend must run the machine cm compiled.
func NewParserBackend(l *lang.Language, cm *compile.Compiled, b Backend) (*Parser, error) {
	bound, err := Bind(l, cm)
	if err != nil {
		return nil, err
	}
	return NewParserBound(l, cm, bound, b), nil
}

// Bind binds l's lexer to the token codes of cm, the machine l
// compiled to. The result depends on nothing else and is read-only, so
// one Bound serves every parser of cm (see NewParserBound).
func Bind(l *lang.Language, cm *compile.Compiled) (*lexer.Bound, error) {
	lx, err := l.Lexer()
	if err != nil {
		return nil, err
	}
	return lx.Bind(func(rule int) (core.Symbol, bool) {
		return cm.Tokens.Code(l.Grammar.Lookup(l.LexSpec.Rules[rule].Name))
	}), nil
}

// NewParserBound is NewParserBackend over a lexer Bind already bound
// to cm, which a pool of parsers shares.
func NewParserBound(l *lang.Language, cm *compile.Compiled, bound *lexer.Bound, b Backend) *Parser {
	return &Parser{
		l: l, cm: cm, lx: bound,
		exec: b,
		run:  b.FeedAll,
		mfp:  cm.Fingerprint(),
	}
}

// Bound returns the bound lexer the parser scans with.
func (p *Parser) Bound() *lexer.Bound { return p.lx }

// SetRunner replaces the function each chunk's codes are fed through,
// which defaults to the backend's FeedAll; run must keep FeedAll's
// contract on the same backend. Call before the first Write.
func (p *Parser) SetRunner(run Runner) { p.run = run }

// Execution exposes the underlying machine execution for observers
// that need the live configuration (the invariant scrubber in
// internal/verify reads the active state, stack depth and TOS at window
// boundaries). It returns nil when the parser runs a non-simulator
// backend — observers requiring hooks construct simulator-backed
// parsers. Callers must not mutate the execution.
func (p *Parser) Execution() *core.Execution {
	if e, ok := p.exec.(*core.Execution); ok {
		return e
	}
	return nil
}

// Reset rewinds the parser to its initial configuration — start state,
// empty stack, default lexer mode, zeroed counters — without touching
// the compiled machine or the lexer, so a pooled parser is reused
// across requests with zero compile work. Grown buffers (code scratch,
// execution stack, and the input tail up to maxKeptTail) keep their
// capacity; after a warm-up run the reset parser's steady-state path
// allocates nothing. A reset parser is equivalent to a freshly
// constructed one (asserted by TestResetEquivalence). Telemetry routing
// survives the reset; the registry totals keep accumulating across
// reuses.
func (p *Parser) Reset() {
	p.exec.Reset()
	p.mode = 0 // lexer.DefaultMode
	p.dropTail()
	p.offset = 0
	p.tokens = 0
	p.lexStats = lexer.Stats{}
	p.jammed = false
	p.jamPos = 0
	p.closed = false
	p.err = nil
	if p.tm != nil {
		p.tm.prevTokens = 0
		p.tm.prevCycles = 0
	}
}

// Write feeds one chunk. It implements io.Writer.
func (p *Parser) Write(chunk []byte) (int, error) {
	if p.err != nil {
		return 0, p.err
	}
	if p.closed {
		return 0, fmt.Errorf("stream: write after Close")
	}
	if p.tm != nil {
		p.tm.chunks.Inc()
		p.tm.bytes.Add(int64(len(chunk)))
		p.tm.lastChunkBytes.SetInt(int64(len(chunk)))
	}
	p.tail = append(p.tail, chunk...)
	consumed, mode, stats, err := p.lx.Scan(&p.scan, p.tail, p.mode, false)
	p.accumulate(stats)
	if err != nil {
		p.err = p.locate(err)
		return 0, p.err
	}
	if ferr := p.feed(); ferr != nil {
		p.err = ferr
		return 0, p.err
	}
	p.mode = mode
	p.offset += consumed
	p.tail = append(p.tail[:0], p.tail[consumed:]...)
	if p.tm != nil {
		p.sync()
	}
	return len(chunk), nil
}

// Close flushes the trailing lexeme, feeds the endmarker, and returns
// the outcome.
func (p *Parser) Close() (Outcome, error) {
	if p.err != nil {
		return p.outcome(), p.err
	}
	if p.closed {
		return p.outcome(), fmt.Errorf("stream: double Close")
	}
	p.closed = true
	// Final tokenization: end-of-stream semantics.
	_, _, stats, err := p.lx.Scan(&p.scan, p.tail, p.mode, true)
	p.accumulate(stats)
	if err != nil {
		p.err = p.locate(err)
		return p.outcome(), p.err
	}
	if ferr := p.feed(); ferr != nil {
		p.err = ferr
		return p.outcome(), p.err
	}
	p.offset += len(p.tail)
	p.dropTail()
	// Endmarker + trailing ε-moves.
	if !p.jammed {
		_, jammed, err := p.run(endCodes)
		if err == nil && !jammed {
			_, err = p.exec.DrainEpsilon()
		}
		if err != nil {
			p.err = err
			return p.outcome(), err
		}
		if jammed {
			p.jammed = true
			p.jamPos = p.offset
		}
	}
	if p.tm != nil {
		p.sync()
	}
	return p.outcome(), nil
}

// dropTail empties the tail, keeping its buffer unless it grew past
// maxKeptTail; the code scratch, one slot per tail byte, goes with it.
func (p *Parser) dropTail() {
	p.tail = p.tail[:0]
	if cap(p.tail) > maxKeptTail {
		p.tail = nil
	}
	if cap(p.scan.Syms) > maxKeptTail {
		p.scan.Syms = nil
	}
}

// feed consumes the codes the chunk's scan wrote in one run call. A fed
// token counts; a jamming token counts and records its position, which
// the lexer recovers for that one code; a machine fault leaves the
// faulting token uncounted. A non-terminal token ends the codes the
// scan wrote: that prefix is consumed first, and the error surfaces
// only if the machine got through it.
func (p *Parser) feed() error {
	if p.jammed {
		return nil
	}
	sc := &p.scan
	fed, jammed, err := 0, false, error(nil)
	if len(sc.Syms) > 0 {
		fed, jammed, err = p.run(sc.Syms)
	}
	p.tokens += fed
	if err != nil {
		return err
	}
	if jammed {
		p.tokens++
		p.jammed = true
		p.jamPos = p.offset + p.lx.Start(sc, p.tail, p.mode, fed)
		return nil
	}
	if sc.NonTerminal >= 0 {
		return fmt.Errorf("stream: token %q is not a terminal", p.l.LexSpec.Rules[sc.NonTerminal].Name)
	}
	return nil
}

func (p *Parser) accumulate(s lexer.Stats) {
	p.lexStats.Tokens += s.Tokens
	p.lexStats.ScanCycles += s.ScanCycles
	p.lexStats.HandoffCycles += s.HandoffCycles
	if p.tm != nil {
		s.Observe(p.tm.reg)
	}
}

// locate rebases a lexer error position to the absolute stream offset.
func (p *Parser) locate(err error) error {
	if le, ok := err.(*lexer.Error); ok {
		le.Pos += p.offset
		return le
	}
	return err
}

func (p *Parser) outcome() Outcome {
	res := p.exec.Result()
	res.Jammed = p.jammed
	res.Accepted = p.closed && !p.jammed && p.err == nil && p.exec.InAccept()
	p.lexStats.Bytes = p.offset + len(p.tail)
	return Outcome{
		Accepted: res.Accepted,
		Tokens:   p.tokens,
		Bytes:    p.lexStats.Bytes,
		LexStats: p.lexStats,
		Result:   res,
	}
}

// ParseReader drains r through the parser in bufSize chunks.
func ParseReader(l *lang.Language, cm *compile.Compiled, r io.Reader, bufSize int, opts core.ExecOptions) (Outcome, error) {
	return ParseReaderObserved(l, cm, r, bufSize, opts, nil)
}

// ParseReaderObserved drains r like ParseReader with the parser's
// telemetry routed into reg (nil = no telemetry), so the run can be
// scraped in flight from the debug endpoint.
func ParseReaderObserved(l *lang.Language, cm *compile.Compiled, r io.Reader, bufSize int, opts core.ExecOptions, reg *telemetry.Registry) (Outcome, error) {
	if bufSize <= 0 {
		bufSize = 64 << 10
	}
	p, err := NewParser(l, cm, opts)
	if err != nil {
		return Outcome{}, err
	}
	if reg != nil {
		p.EnableTelemetry(reg)
	}
	buf := make([]byte, bufSize)
	for {
		n, rerr := r.Read(buf)
		if n > 0 {
			if _, werr := p.Write(buf[:n]); werr != nil {
				return p.outcome(), werr
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return p.outcome(), rerr
		}
	}
	return p.Close()
}
