package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/engine"
	"aspen/internal/lang"
	"aspen/internal/lexer"
	"aspen/internal/serve"
	"aspen/internal/store"
	"aspen/internal/stream"
	"aspen/internal/telemetry"
)

// The traced replay. The served documents are fed again through each
// layer's public functions, with a span around every call, so the layer
// costs can be set beside the served path: lexer (TokenizeChunkInto /
// TokenizeResumeInto over the handler's 32 KiB reads), token encode (the
// rule-to-code table stream.NewParserBackend derives), engine
// (engine.Exec.FeedAll), and the whole stream.Parser built the way serve
// builds it. How far the layer sum lies from the stream time, either
// way, is reported as unattributed, not assumed away.

// copyChunk is the request handler's read-buffer size: the served path
// lexes its body in pieces of at most this many bytes.
const copyChunk = 32 << 10

// layers is one grammar's pipeline, built the way serve builds it.
type layers struct {
	l    *lang.Language
	cm   *compile.Compiled
	prog *engine.Program
	lx   *lexer.Lexer
	rc   []int16 // lexer rule → machine code (-1: not a terminal)

	x     *engine.Exec   // the replay's own machine
	p, p2 *stream.Parser // serve-shaped parser, and a restore target
	cp    stream.Checkpoint
	cp2   stream.Checkpoint
	toks  []lexer.Token
	codes []core.Symbol
	tail  []byte
}

// setupTimes are one repetition's setup spans, summed over a grammar set.
type setupTimes struct{ compile, lower, lexer time.Duration }

// buildLayers times the three setup steps serve.New runs per grammar —
// lang.Language.Compile, compile.Compiled.Engine and
// lang.Language.Lexer — on fresh language values, reps times, and keeps
// the last repetition's pipelines for the replay.
func buildLayers(grammars []string, reps int) (map[string]*layers, []setupTimes, error) {
	var times []setupTimes
	var out map[string]*layers
	for rep := 0; rep < reps; rep++ {
		settle()
		out = map[string]*layers{}
		var st setupTimes
		for _, g := range grammars {
			ls := &layers{l: serve.ResolveBuiltin(g)}
			var err error
			t := time.Now()
			if ls.cm, err = ls.l.Compile(compile.OptAll); err != nil {
				return nil, nil, err
			}
			st.compile += time.Since(t)
			t = time.Now()
			if ls.prog, err = ls.cm.Engine(); err != nil {
				return nil, nil, err
			}
			st.lower += time.Since(t)
			t = time.Now()
			if ls.lx, err = ls.l.Lexer(); err != nil {
				return nil, nil, err
			}
			st.lexer += time.Since(t)
			out[g] = ls
		}
		times = append(times, st)
	}
	for _, ls := range out {
		if err := ls.init(); err != nil {
			return nil, nil, err
		}
	}
	return out, times, nil
}

func (ls *layers) init() error {
	ls.rc = make([]int16, len(ls.l.LexSpec.Rules))
	for i, r := range ls.l.LexSpec.Rules {
		ls.rc[i] = -1
		if r.Skip {
			continue
		}
		if code, ok := ls.cm.Tokens.Code(ls.l.Grammar.Lookup(r.Name)); ok {
			ls.rc[i] = int16(code)
		}
	}
	ls.x = engine.NewExec(ls.prog, engine.Options{})
	var err error
	if ls.p, err = ls.serveParser(); err != nil {
		return err
	}
	ls.p2, err = ls.serveParser()
	return err
}

// serveParser builds a stream.Parser the way serve's parser pool does for
// an uncontended grammar: engine backend, a runner straight to FeedAll
// (a one-lane wave), telemetry on.
func (ls *layers) serveParser() (*stream.Parser, error) {
	x := engine.NewExec(ls.prog, engine.Options{})
	p, err := stream.NewParserBackend(ls.l, ls.cm, x)
	if err != nil {
		return nil, err
	}
	p.SetRunner(x.FeedAll)
	p.EnableTelemetry(telemetry.NewRegistry())
	return p, nil
}

// span is one traced call of the replay; spans of one document share
// its index, and every layer span's parent is the document span.
type span struct {
	Doc    int    `json:"doc"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory (up to max; durations are summed by the
// caller regardless) for writing out when the run ends.
type tracer struct {
	t0    time.Time
	on    bool
	max   int
	spans []span
}

func (tr *tracer) add(doc int, name, parent string, start time.Time, d time.Duration) {
	if !tr.on || len(tr.spans) >= tr.max {
		return
	}
	s := start.Sub(tr.t0).Nanoseconds()
	tr.spans = append(tr.spans, span{Doc: doc, Name: name, Parent: parent, Start: s, End: s + d.Nanoseconds()})
}

// ledger accumulates the replay's layer times.
type ledger struct {
	lex, enc, eng, stream time.Duration
	bytes                 int
	lexTokens, engTokens  int
	epsStalls             int
}

// verdict is the part of an answer the replay must reproduce exactly.
type verdict struct {
	tokens, cycles int
	accepted       bool
}

func (v verdict) String() string {
	return fmt.Sprintf("tokens=%d cycles=%d accepted=%v", v.tokens, v.cycles, v.accepted)
}

// replayDoc runs one document through lexer → encode → engine with a span
// per call, mirroring stream.Parser's Write/Close accounting: a jam
// stops feeding but not lexing, and a lexer or machine error ends the
// document.
func (ls *layers) replayDoc(tr *tracer, led *ledger, di int, data []byte) verdict {
	x := ls.x
	x.Reset()
	mode := lexer.DefaultMode
	tail := ls.tail[:0]
	tokens, jammed, failed := 0, false, false
	feed := func(toks []lexer.Token) {
		if jammed || failed {
			return
		}
		t := time.Now()
		codes, bad := ls.codes[:0], -1
		for i, tk := range toks {
			c := ls.rc[tk.Rule]
			if c < 0 {
				bad = i
				break
			}
			codes = append(codes, core.Symbol(c))
		}
		ls.codes = codes
		d := time.Since(t)
		led.enc += d
		tr.add(di, "encode", "doc", t, d)
		if len(codes) > 0 {
			t = time.Now()
			fed, jam, err := x.FeedAll(codes)
			d = time.Since(t)
			led.eng += d
			tr.add(di, "engine", "doc", t, d)
			tokens += fed
			switch {
			case err != nil:
				failed = true
				return
			case jam:
				tokens++
				jammed = true
				return
			}
		}
		failed = bad >= 0
	}
	lex := func(final bool) ([]lexer.Token, int, string, error) {
		t := time.Now()
		var toks []lexer.Token
		var consumed int
		var next string
		var err error
		if final {
			toks, _, next, err = ls.lx.TokenizeResumeInto(ls.toks[:0], tail, mode)
		} else {
			toks, consumed, next, _, err = ls.lx.TokenizeChunkInto(ls.toks[:0], tail, mode)
		}
		d := time.Since(t)
		ls.toks = toks
		led.lex += d
		led.lexTokens += len(toks)
		tr.add(di, "lexer", "doc", t, d)
		return toks, consumed, next, err
	}
	docStart := time.Now()
	for off := 0; off < len(data) && !failed; off += copyChunk {
		tail = append(tail, data[off:min(off+copyChunk, len(data))]...)
		toks, consumed, next, err := lex(false)
		if err != nil {
			failed = true
			break
		}
		feed(toks)
		mode = next
		tail = append(tail[:0], tail[consumed:]...)
	}
	if !failed {
		if toks, _, _, err := lex(true); err != nil {
			failed = true
		} else {
			feed(toks)
		}
	}
	if !failed && !jammed {
		t := time.Now()
		_, err := x.DrainEpsilon()
		ok := false
		if err == nil {
			ok, err = x.Feed(compile.EndCode)
		}
		if err == nil && ok {
			_, err = x.DrainEpsilon()
		}
		jammed = err == nil && !ok
		failed = err != nil
		d := time.Since(t)
		led.eng += d
		tr.add(di, "engine", "doc", t, d)
	}
	ls.tail = tail
	tr.add(di, "doc", "", docStart, time.Since(docStart))
	res := x.Result()
	led.bytes += len(data)
	led.engTokens += tokens
	led.epsStalls += res.EpsilonStalls
	return verdict{tokens: tokens, cycles: res.Consumed + res.EpsilonStalls,
		accepted: !failed && !jammed && x.InAccept()}
}

// streamDoc parses one document through the serve-shaped stream.Parser
// in handler-sized writes.
func (ls *layers) streamDoc(data []byte) verdict {
	p := ls.p
	p.Reset()
	for off := 0; off < len(data); off += copyChunk {
		if _, err := p.Write(data[off:min(off+copyChunk, len(data))]); err != nil {
			break
		}
	}
	out, _ := p.Close()
	return verdict{tokens: out.Tokens, cycles: out.Result.Consumed + out.Result.EpsilonStalls, accepted: out.Accepted}
}

// ckTimes are the checkpoint pass's per-call durations.
type ckTimes struct{ checkpoint, restore, save, load []float64 }

// checkpointDoc writes a document in handler-sized pieces and, after every
// piece, seals and encodes a checkpoint, then decodes and restores it
// into a second parser; the first maxSaves images also go through the
// durable checkpoint store.
func (ls *layers) checkpointDoc(ck *ckTimes, cs *store.CheckpointStore, data []byte, maxSaves int) error {
	p := ls.p
	p.Reset()
	for off := 0; off < len(data); off += copyChunk {
		if _, err := p.Write(data[off:min(off+copyChunk, len(data))]); err != nil {
			return fmt.Errorf("checkpoint pass: %w", err)
		}
		t := time.Now()
		p.Checkpoint(&ls.cp)
		img, err := ls.cp.MarshalBinary()
		ck.checkpoint = append(ck.checkpoint, float64(time.Since(t).Nanoseconds()))
		if err != nil {
			return err
		}
		t = time.Now()
		if err := ls.cp2.UnmarshalBinary(img); err != nil {
			return err
		}
		if err := ls.p2.Restore(&ls.cp2); err != nil {
			return err
		}
		ck.restore = append(ck.restore, float64(time.Since(t).Nanoseconds()))
		if len(ck.save) < maxSaves {
			key := "replay-" + strconv.Itoa(len(ck.save))
			t = time.Now()
			if err := cs.Save(key, &ls.cp); err != nil {
				return err
			}
			ck.save = append(ck.save, float64(time.Since(t).Nanoseconds())/1e3)
			t = time.Now()
			if err := cs.Load(key, &ls.cp2); err != nil {
				return err
			}
			ck.load = append(ck.load, float64(time.Since(t).Nanoseconds())/1e3)
		}
	}
	_, err := p.Close()
	return err
}

// replayReport is what the traced replay measured.
type replayReport struct {
	metrics  []metric
	mismatch []string
	spans    []span
}

// replay runs the traced replay for at least one pass and then until
// budget is spent, followed by an allocation pass of the stream path, the
// checkpoint pass, and the admission and response-encoding loops against
// the live server srv.
func replay(w *workload, ls map[string]*layers, served map[int]outcome, srv *serve.Server, ckDir string, budget time.Duration) (*replayReport, error) {
	rep := &replayReport{}
	tr := &tracer{t0: time.Now(), on: true, max: 50000}
	want := func(di int) verdict {
		o, ok := served[di]
		if !ok {
			o = w.wants[di].outcome
		}
		return verdict{tokens: o.Tokens, cycles: o.Cycles, accepted: o.Accepted}
	}
	var led ledger
	start := time.Now()
	passes := 0
	for ; passes == 0 || time.Since(start) < budget; passes++ {
		pass := passes
		for di, d := range w.docs {
			l := ls[d.grammar]
			streamFirst := pass%2 == 1
			if streamFirst {
				led.stream += timeStream(tr, l, di, d.data, want(di), rep)
			}
			if got := l.replayDoc(tr, &led, di, d.data); got != want(di) && pass == 0 {
				rep.mismatch = append(rep.mismatch, fmt.Sprintf("replay of %s document %d: %v, served %v", d.grammar, di, got, want(di)))
			}
			if !streamFirst {
				led.stream += timeStream(tr, l, di, d.data, want(di), rep)
			}
		}
		tr.on = false // spans of the first pass are kept; later passes only add up
	}
	rep.spans = tr.spans
	kib := float64(led.bytes) / 1024
	replayed := passes * len(w.docs)

	// An allocation pass of the stream path on warm buffers.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, d := range w.docs {
		ls[d.grammar].streamDoc(d.data)
	}
	runtime.ReadMemStats(&ms1)
	streamAllocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(len(w.docs))

	// Checkpoint pass.
	cs, err := store.OpenCheckpoints(ckDir)
	if err != nil {
		return nil, err
	}
	var ck ckTimes
	for _, d := range w.docs {
		if !d.valid {
			continue // a session never checkpoints past a document error
		}
		if err := ls[d.grammar].checkpointDoc(&ck, cs, d.data, 32); err != nil {
			return nil, err
		}
	}

	// Admission and response encoding, on the idle live server.
	const admitN, respondN = 50000, 20000
	t := time.Now()
	for i := 0; i < admitN; i++ {
		d := &w.docs[i%len(w.docs)]
		if err := srv.BenchAdmitCycle(d.grammar, int64(len(d.data))); err != nil {
			return nil, err
		}
	}
	admitNS := float64(time.Since(t).Nanoseconds()) / admitN
	resps := make([]serve.ParseResponse, len(w.docs))
	for di := range resps {
		v := want(di)
		resps[di] = serve.ParseResponse{Grammar: w.docs[di].grammar, Accepted: v.accepted, Bytes: len(w.docs[di].data),
			Tokens: v.tokens, Cycles: v.cycles, QueueNS: 12345, ParseNS: 6789012}
	}
	t = time.Now()
	for i := 0; i < respondN; i++ {
		if _, err := json.Marshal(&resps[i%len(resps)]); err != nil {
			return nil, err
		}
	}
	respondNS := float64(time.Since(t).Nanoseconds()) / respondN

	nsPerKiB := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / kib }
	layerSum := led.lex + led.enc + led.eng
	rep.metrics = []metric{
		{"serve.admit_ns", admitNS, "ns", admitN},
		{"lexer.ns_per_kib", nsPerKiB(led.lex), "ns/KiB", replayed},
		{"lexer.tokens_per_kib", float64(led.lexTokens) / kib, "count/KiB", replayed},
		{"stream.encode_ns_per_kib", nsPerKiB(led.enc), "ns/KiB", replayed},
		{"engine.ns_per_kib", nsPerKiB(led.eng), "ns/KiB", replayed},
		{"engine.ns_per_token", float64(led.eng.Nanoseconds()) / float64(max(1, led.engTokens)), "ns", led.engTokens},
		{"engine.epsilon_stalls_per_token", float64(led.epsStalls) / float64(max(1, led.engTokens)), "count", led.engTokens},
		{"stream.ns_per_kib", nsPerKiB(led.stream), "ns/KiB", replayed},
		{"stream.allocs_per_doc", streamAllocs, "count", len(w.docs)},
		{"ledger.layer_sum_ns_per_kib", nsPerKiB(layerSum), "ns/KiB", replayed},
		{"stream.unattributed_ns_per_kib", nsPerKiB(max(led.stream-layerSum, layerSum-led.stream)), "ns/KiB", replayed},
		{"serve.respond_ns", respondNS, "ns", respondN},
		{"stream.checkpoint_ns", median(ck.checkpoint), "ns", len(ck.checkpoint)},
		{"stream.restore_ns", median(ck.restore), "ns", len(ck.restore)},
		{"store.save_us", median(ck.save), "us", len(ck.save)},
		{"store.load_us", median(ck.load), "us", len(ck.load)},
	}
	return rep, nil
}

// timeStream parses one document on the serve-shaped parser under a
// "stream" span and checks its verdict against the served one.
func timeStream(tr *tracer, l *layers, di int, data []byte, want verdict, rep *replayReport) time.Duration {
	t := time.Now()
	got := l.streamDoc(data)
	d := time.Since(t)
	tr.add(di, "stream", "", t, d)
	if got != want && tr.on {
		rep.mismatch = append(rep.mismatch, fmt.Sprintf("stream parse of document %d: %v, served %v", di, got, want))
	}
	return d
}
