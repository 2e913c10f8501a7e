package engine_test

// FuzzEngineDifferential is the engine↔simulator equivalence property
// under coverage guidance: an arbitrary document in any of the five
// built-in grammars, parsed at arbitrary chunk boundaries under an
// arbitrary stack depth and ε-budget, must produce the same outcome,
// counters, and error string through the engine backend as through
// the cycle-accurate simulator. A second selector exercises the machine
// level directly on the palindrome hDPDA, where the raw bytes are the
// input symbols; a third restores the document's leading bytes as a
// raw stack (any symbols at all, or none) onto one of seven machines
// and feeds the rest as codes. Run via `make fuzz`; seeds run on plain
// `go test`.

import (
	"reflect"
	"sync"
	"testing"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/engine"
	"aspen/internal/lang"
	"aspen/internal/stream"
)

type fuzzLang struct {
	l    *lang.Language
	cm   *compile.Compiled
	prog *engine.Program
}

var fuzzOnce struct {
	sync.Once
	langs []fuzzLang
	// restore holds the machines of the restore selector, with their
	// programs; the palindrome machine is restore[1].
	restore []*core.HDPDA
	progs   []*engine.Program
	err     error
}

func fuzzSetup(t testing.TB) ([]fuzzLang, *engine.Program) {
	fuzzOnce.Do(func() {
		for _, l := range []*lang.Language{lang.JSON(), lang.XML(), lang.DOT(), lang.Cool(), lang.MiniC()} {
			cm, err := l.Compile(compile.OptAll)
			if err != nil {
				fuzzOnce.err = err
				return
			}
			prog, err := cm.Engine()
			if err != nil {
				fuzzOnce.err = err
				return
			}
			fuzzOnce.langs = append(fuzzOnce.langs, fuzzLang{l, cm, prog})
		}
		fuzzOnce.restore = []*core.HDPDA{twoCandHDPDA(), core.PalindromeHDPDA()}
		for _, fl := range fuzzOnce.langs {
			fuzzOnce.restore = append(fuzzOnce.restore, fl.cm.Machine)
		}
		for _, m := range fuzzOnce.restore {
			prog, err := engine.Compile(m)
			if err != nil {
				fuzzOnce.err = err
				return
			}
			fuzzOnce.progs = append(fuzzOnce.progs, prog)
		}
	})
	if fuzzOnce.err != nil {
		t.Fatal(fuzzOnce.err)
	}
	return fuzzOnce.langs, fuzzOnce.progs[1]
}

// fuzzParse runs doc through a streaming parse, chunked by the rng
// stream, on the simulator or the engine backend.
func fuzzParse(t testing.TB, fl fuzzLang, sim bool, doc []byte, seed uint64, depth, budget int) (stream.Outcome, error) {
	var p *stream.Parser
	var err error
	if sim {
		p, err = stream.NewParser(fl.l, fl.cm, core.ExecOptions{StackDepth: depth, EpsilonBudget: budget})
	} else {
		p, err = stream.NewParserBackend(fl.l, fl.cm,
			engine.NewExec(fl.prog, engine.Options{StackDepth: depth, EpsilonBudget: budget}))
	}
	if err != nil {
		t.Fatal(err)
	}
	rng, pos := seed, 0
	for pos < len(doc) {
		rng = rng*6364136223846793005 + 1442695040888963407
		n := 1 + int((rng>>33)%9)
		if pos+n > len(doc) {
			n = len(doc) - pos
		}
		if _, werr := p.Write(doc[pos : pos+n]); werr != nil {
			out, _ := p.Close()
			return out, werr
		}
		pos += n
	}
	return p.Close()
}

func FuzzEngineDifferential(f *testing.F) {
	// Seeds: the stream fuzzer's historical crasher shapes, documents
	// that reach every error class, the DOT, Cool and MiniC samples
	// (whole, under a small stack depth, and under an ε-budget that
	// runs out inside a static ε-tail), palindrome-selector inputs, and
	// restore-selector inputs (seed bits: machine, stack length, state).
	seeds := []struct {
		doc  string
		sel  byte
		seed uint64
		dep  uint8
	}{
		{`{"k": [1, 2, {"n": null}], "s": "str"}`, 0, 7, 0},
		{`{"bad" 1}`, 0, 7, 0},
		{`{"x": ` + "\x01", 0, 3, 0},
		{`{"truncated": [`, 0, 0xdeadbeef, 0},
		{`[[[[[[[[[[1]]]]]]]]]]`, 0, 11, 4}, // depth overflow
		{``, 0, 1, 0},
		{`[1,]`, 0, 2, 0},
		{`<r a="1">text<b/></r>`, 1, 7, 0},
		{`<r></q>`, 1, 5, 0},
		{`<r><a><b/></a>`, 1, 9, 3},
		{lang.DOTSample, 4, 7, 0},
		{lang.CoolSample, 5, 7, 0},
		{lang.CoolSample, 5, 13, 5},
		{lang.CoolSample, 5, 3 | 1<<57 | 4<<58, 0},
		{lang.MiniCSample, 8, 7, 0},
		{lang.MiniCSample, 8, 13, 6},
		{lang.MiniCSample, 8, 3 | 1<<57 | 5<<58, 0},
		{"010c010", 2, 0, 0},
		{"0110c0110", 2, 0, 3},
		{"01c01", 2, 0, 0},
		{"000111", 2, 0, 0},
		// Two-candidate machine at its start state, stack ⊥ 5 9 (never
		// pushed; 5 only in one candidate's label): ε-pop, chain, end,
		// then a code past the input width.
		{"\x00\x05\x09aex\xc8", 3, 0 | 3<<8, 0},
		// Palindrome machine in its pop state over ⊥ 0xff (in no pop
		// label), then codes up to the row edge and past it.
		{"\x00\xff1c0\x7f\x80", 3, 1 | 2<<8 | 4<<16, 2},
	}
	for _, s := range seeds {
		f.Add([]byte(s.doc), s.sel, s.seed, s.dep)
	}

	f.Fuzz(func(t *testing.T, doc []byte, sel byte, seed uint64, dep uint8) {
		langs, pal := fuzzSetup(t)
		depth := int(dep) // 0 = backend default (256)

		if sel%4 == 3 {
			// Restore: doc[:n] is the raw stack, doc[n:] the codes.
			i := int(seed&0xff) % len(fuzzOnce.restore)
			m, prog := fuzzOnce.restore[i], fuzzOnce.progs[i]
			n := int((seed >> 8) % uint64(len(doc)+1))
			cp := sealed(core.StateID((seed>>16)%uint64(len(m.States))), core.BytesToSymbols(doc[:n]))
			restoreDiff(t, m, prog, cp, core.BytesToSymbols(doc[n:]), depth, seed&(1<<40) != 0)
			return
		}
		if sel%4 == 2 {
			// Machine-level: raw bytes are input symbols for the
			// palindrome hDPDA (its alphabet handles all 256 values).
			syms := core.BytesToSymbols(doc)
			want, wantErr := core.PalindromeHDPDA().Run(syms,
				core.ExecOptions{StackDepth: depth, CollectReports: true})
			got, gotErr := pal.Run(syms, engine.Options{StackDepth: depth, CollectReports: true})
			if errString(gotErr) != errString(wantErr) {
				t.Fatalf("palindrome err: engine %q, sim %q (in %q depth %d)",
					errString(gotErr), errString(wantErr), doc, depth)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("palindrome result: engine %+v, sim %+v (in %q depth %d)", got, want, doc, depth)
			}
			return
		}

		// Stream: sel 0 and 1 are JSON and XML; sel/4 steps on through
		// DOT, Cool and MiniC. A seed with bit 57 set runs under an
		// ε-budget of its top six bits (0 = default).
		fl := langs[(int(sel%4)+2*int(sel/4))%len(langs)]
		budget := 0
		if seed&(1<<57) != 0 {
			budget = int(seed >> 58)
		}
		want, wantErr := fuzzParse(t, fl, true, doc, seed, depth, budget)
		got, gotErr := fuzzParse(t, fl, false, doc, seed, depth, budget)
		if errString(gotErr) != errString(wantErr) {
			t.Fatalf("%s err: engine %q, sim %q (doc %q seed %d depth %d budget %d)",
				fl.l.Name, errString(gotErr), errString(wantErr), doc, seed, depth, budget)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s outcome: engine %+v, sim %+v (doc %q seed %d depth %d budget %d)",
				fl.l.Name, got, want, doc, seed, depth, budget)
		}
	})
}
