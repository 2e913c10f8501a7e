package bench

import (
	"fmt"
	"strings"
	"time"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/engine"
	"aspen/internal/lang"
	"aspen/internal/lexer"
	"aspen/internal/stream"
	"aspen/internal/xmlgen"
)

// scanRead is the read size the scan column lexes in: serving's copy
// buffer.
const scanRead = 32 << 10

// EngineRow is one grammar's fast-path engine measurements against the
// cycle-accurate simulator, at the machine level (pre-tokenized codes)
// and through the full streaming parse path (lexing included).
type EngineRow struct {
	Grammar string
	States  int
	TableKB int
	Tokens  int

	SimExecNSPerKB  float64 // core.Execution over token codes
	EngExecNSPerKB  float64 // engine.Exec over the same codes
	ExecSpeedup     float64 // sim / engine
	SimParseNSPerKB float64 // stream.Parser on the simulator backend
	ScanNSPerKB     float64 // lexer.Bound.Scan alone, in 32 KiB reads, as aspend's parsers run it
	EngParseNSPerKB float64 // stream.Parser on the engine backend, as aspend serves it
	ParseSpeedup    float64 // sim / engine, full parse path
}

// Engine measures the fast-path execution engine against the simulator
// it was split from. The exec columns isolate the machine-dispatch cost
// (documents tokenized once, codes replayed), which is where the
// flattened tables pay off; the parse columns run the whole streaming
// pipeline, where lexing bounds the achievable end-to-end gain, and the
// scan column times that lexing alone, so engine parse splits into
// scan and exec on the path aspend serves. Both
// backends are differentially tested byte-identical, so every speedup
// here is a free lunch — same answers, fewer cycles.
func Engine(sizeBytes int) (*Table, []EngineRow) {
	docs := []struct {
		grammar string
		lang    *lang.Language
		data    []byte
	}{
		{"JSON", lang.JSON(), jsonDocOfSize(sizeBytes)},
		{"XML", lang.XML(), xmlgen.Corpus(sizeBytes)[0].Data},
		{"Cool", lang.Cool(), repeatToSize(lang.CoolSample, sizeBytes)},
		{"MiniC", lang.MiniC(), repeatToSize(lang.MiniCSample, sizeBytes)},
	}

	var rows []EngineRow
	for _, d := range docs {
		cm, err := d.lang.Compile(compile.OptAll)
		if err != nil {
			panic(err)
		}
		prog, err := cm.Engine()
		if err != nil {
			panic(err)
		}
		lx, err := d.lang.Lexer()
		if err != nil {
			panic(err)
		}
		toks, _, err := lx.Tokenize(d.data)
		if err != nil {
			panic(err)
		}
		// Token codes the way stream.Parser derives them, with the
		// end-of-input terminal appended — the machine-level input both
		// backends replay.
		codes := make([]core.Symbol, 0, len(toks)+1)
		for _, tk := range toks {
			rule := d.lang.LexSpec.Rules[tk.Rule]
			if rule.Skip {
				continue
			}
			code, ok := cm.Tokens.Code(d.lang.Grammar.Lookup(rule.Name))
			if !ok {
				panic(fmt.Sprintf("bench engine: %s: token %q has no machine code", d.grammar, rule.Name))
			}
			codes = append(codes, code)
		}
		codes = append(codes, compile.EndCode)
		kb := float64(len(d.data)) / 1024

		check := func(res core.Result, err error, who string) {
			if err != nil || !res.Accepted {
				panic(fmt.Sprintf("bench engine: %s: %s rejected the document (err=%v)", d.grammar, who, err))
			}
		}

		simNS := measureNS(20*time.Millisecond, func() {
			res, err := cm.Machine.Run(codes, core.ExecOptions{})
			check(res, err, "simulator")
		})
		engNS := measureNS(20*time.Millisecond, func() {
			res, err := prog.Run(codes, engine.Options{})
			check(res, err, "engine")
		})

		// Full parse path: lexing + token dispatch, pooled parsers
		// reused across iterations exactly like the serving layer. The
		// engine parser is built as aspend's pool builds it (telemetry
		// aside), so it feeds each chunk through one Exec.FeedAll call.
		simParser, err := stream.NewParser(d.lang, cm, core.ExecOptions{})
		if err != nil {
			panic(err)
		}
		engParser, err := stream.NewParserBackend(d.lang, cm, engine.NewExec(prog, engine.Options{}))
		if err != nil {
			panic(err)
		}
		parse := func(p *stream.Parser) func() {
			return func() {
				p.Reset()
				if _, err := p.Write(d.data); err != nil {
					panic(fmt.Sprintf("bench engine: %s: %v", d.grammar, err))
				}
				out, err := p.Close()
				if err != nil || !out.Result.Accepted {
					panic(fmt.Sprintf("bench engine: %s: parse rejected (err=%v)", d.grammar, err))
				}
			}
		}
		simParseNS := measureNS(20*time.Millisecond, parse(simParser))
		engParseNS := measureNS(20*time.Millisecond, parse(engParser))

		// The parsers' lexing alone: the bound scan over the document in
		// serving's 32 KiB reads, carrying the held-back tail and mode
		// across reads as stream.Parser does.
		bound, err := stream.Bind(d.lang, cm)
		if err != nil {
			panic(err)
		}
		var (
			out  lexer.Codes
			tail []byte
		)
		scanNS := measureNS(20*time.Millisecond, func() {
			mode := 0
			tail = tail[:0]
			for off := 0; off < len(d.data); off += scanRead {
				tail = append(tail, d.data[off:min(off+scanRead, len(d.data))]...)
				n, m, _, err := bound.Scan(&out, tail, mode, false)
				if err != nil {
					panic(fmt.Sprintf("bench engine: %s: %v", d.grammar, err))
				}
				mode = m
				tail = append(tail[:0], tail[n:]...)
			}
			if _, _, _, err := bound.Scan(&out, tail, mode, true); err != nil {
				panic(fmt.Sprintf("bench engine: %s: %v", d.grammar, err))
			}
		})

		rows = append(rows, EngineRow{
			Grammar:         d.grammar,
			States:          prog.NumStates(),
			TableKB:         prog.TableBytes() >> 10,
			Tokens:          len(codes),
			SimExecNSPerKB:  simNS / kb,
			EngExecNSPerKB:  engNS / kb,
			ExecSpeedup:     simNS / engNS,
			SimParseNSPerKB: simParseNS / kb,
			ScanNSPerKB:     scanNS / kb,
			EngParseNSPerKB: engParseNS / kb,
			ParseSpeedup:    simParseNS / engParseNS,
		})
	}

	tbl := &Table{
		ID:    "engine",
		Title: "fast-path engine vs cycle-accurate simulator",
		Header: []string{"Grammar", "States", "Table KB", "Tokens",
			"sim exec ns/KiB", "engine exec ns/KiB", "exec speedup",
			"sim parse ns/KiB", "scan ns/KiB", "engine parse ns/KiB", "parse speedup"},
		Notes: []string{
			fmt.Sprintf("Documents are %d bytes, tokenized once; exec columns replay the token codes through each backend, parse columns run the full streaming pipeline (lexing included).", sizeBytes),
			"Cool and MiniC documents repeat lang.CoolSample and lang.MiniCSample as many whole times as fit: their LR machines take most of the ε-moves static ε-tails skip.",
			"engine parse runs the feed path aspend serves: a stream.Parser over an engine.Exec, one FeedAll call per chunk.",
			"scan is that parser's lexing alone: lexer.Bound.Scan over the document in 32 KiB reads, so engine parse ≈ scan + engine exec.",
			"Both backends are differentially fuzzed byte-identical (internal/engine); the simulator remains the ground truth for every other table.",
		},
	}
	for _, r := range rows {
		tbl.Rows = append(tbl.Rows, []string{
			r.Grammar, d(r.States), d(r.TableKB), d(r.Tokens),
			f0(r.SimExecNSPerKB), f0(r.EngExecNSPerKB), f2(r.ExecSpeedup),
			f0(r.SimParseNSPerKB), f0(r.ScanNSPerKB), f0(r.EngParseNSPerKB), f2(r.ParseSpeedup)})
	}
	return tbl, rows
}

// repeatToSize repeats sample as many whole times as fit in size bytes,
// at least once.
func repeatToSize(sample string, size int) []byte {
	return []byte(strings.Repeat(sample, max(1, size/len(sample))))
}
