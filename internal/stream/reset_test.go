package stream

import (
	"reflect"
	"strings"
	"testing"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/lang"
	"aspen/internal/telemetry"
)

// Satellite contract of the serving layer: a parser that has been run
// and Reset must be indistinguishable from a freshly constructed one on
// the same input — same outcome, same cycle statistics, same lexer
// work — because the request pool substitutes reset parsers for fresh
// ones on every request.
func TestResetEquivalence(t *testing.T) {
	inputs := map[string][][]byte{
		"JSON": {
			[]byte(`{"a": [1, 2, {"b": null}], "c": "str"}`),
			[]byte(`[true, false, [], {}]`),
			[]byte(`{"broken": `), // rejected: truncated document
		},
		"XML": {
			[]byte(`<a href="x">text<b/></a>`),
			[]byte(`<doc><p>one</p><p>two</p></doc>`),
			[]byte(`<open>`), // rejected: unclosed element
		},
	}
	for name, docs := range inputs {
		l := lang.ByName(name)
		cm, err := l.Compile(compile.OptAll)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		reused, err := NewParser(l, cm, core.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			for i, doc := range docs {
				fresh, err := NewParser(l, cm, core.ExecOptions{})
				if err != nil {
					t.Fatal(err)
				}
				reused.Reset()
				wantOut, wantErr := drive(fresh, doc)
				gotOut, gotErr := drive(reused, doc)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s doc %d round %d: fresh err %v, reset err %v", name, i, round, wantErr, gotErr)
				}
				if wantErr != nil && wantErr.Error() != gotErr.Error() {
					t.Fatalf("%s doc %d round %d: fresh err %q, reset err %q", name, i, round, wantErr, gotErr)
				}
				if !reflect.DeepEqual(wantOut, gotOut) {
					t.Errorf("%s doc %d round %d:\nfresh %+v\nreset %+v", name, i, round, wantOut, gotOut)
				}
			}
		}
	}
}

// drive feeds doc in small uneven chunks and closes.
func drive(p *Parser, doc []byte) (Outcome, error) {
	for len(doc) > 0 {
		n := 7
		if n > len(doc) {
			n = len(doc)
		}
		if _, err := p.Write(doc[:n]); err != nil {
			return Outcome{}, err
		}
		doc = doc[n:]
	}
	return p.Close()
}

// A reset parser keeps feeding its telemetry into the registry, and the
// chunking-invariant totals accumulate across reuses exactly as two
// fresh parsers would produce.
func TestResetTelemetryAccumulates(t *testing.T) {
	l := lang.ByName("JSON")
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte(`[1, [2, [3, [4]]]]`)

	reg := telemetry.NewRegistry()
	p, err := NewParser(l, cm, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.EnableTelemetry(reg)
	if _, err := drive(p, doc); err != nil {
		t.Fatal(err)
	}
	once := reg.Snapshot().Counters["stream_cycles_total"]
	if once == 0 {
		t.Fatal("no cycles recorded")
	}
	p.Reset()
	if _, err := drive(p, doc); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["stream_cycles_total"]; got != 2*once {
		t.Errorf("cycles after reset run = %d, want %d (2× first run)", got, 2*once)
	}
}

// A pooled parser keeps its grown buffers through Close and Reset, so
// re-parsing a document that spans several chunks — with lexemes held
// back across every boundary — allocates nothing.
func TestResetReparseAllocatesNothing(t *testing.T) {
	l := lang.JSON()
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParser(l, cm, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte(`[` + strings.Repeat(`{"key": "value", "n": [1, 2.5, -3e4]}, `, 400) + `null]`)
	const chunk = 4 << 10
	if len(doc) < 3*chunk {
		t.Fatalf("document is %d bytes, want at least 3 chunks of %d", len(doc), chunk)
	}
	parse := func() {
		p.Reset()
		for off := 0; off < len(doc); off += chunk {
			if _, err := p.Write(doc[off:min(off+chunk, len(doc))]); err != nil {
				t.Fatal(err)
			}
		}
		if out, err := p.Close(); err != nil || !out.Accepted {
			t.Fatalf("parse: out=%+v err=%v", out, err)
		}
	}
	parse() // warm-up: grow the tail, the code scratch and the stack
	if allocs := testing.AllocsPerRun(20, parse); allocs != 0 {
		t.Errorf("reset re-parse = %v allocs/run, want 0", allocs)
	}
}

// A tail grown past maxKeptTail by one huge lexeme, and the code
// scratch sized to it, are released at Close instead of being pinned in
// a parser pool; ordinary ones are kept for the next parse.
func TestCloseReleasesOversizedTail(t *testing.T) {
	l := lang.JSON()
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParser(l, cm, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parse := func(doc []byte) {
		t.Helper()
		p.Reset()
		for off := 0; off < len(doc); off += 32 << 10 {
			if _, err := p.Write(doc[off:min(off+32<<10, len(doc))]); err != nil {
				t.Fatal(err)
			}
		}
		if out, err := p.Close(); err != nil || !out.Accepted {
			t.Fatalf("parse: out=%+v err=%v", out, err)
		}
	}
	parse([]byte(`"` + strings.Repeat("x", 2*maxKeptTail) + `"`))
	if c, s := cap(p.tail), cap(p.scan.Syms); c != 0 || s != 0 {
		t.Errorf("after a %d-byte lexeme the tail keeps %d bytes and the code scratch %d, want both released", 2*maxKeptTail, c, s)
	}
	parse([]byte(`["short", "strings", "only"]`))
	if c := cap(p.tail); c == 0 || c > maxKeptTail {
		t.Errorf("after a small document the tail keeps %d bytes, want 1..%d", c, maxKeptTail)
	}
	if s := cap(p.scan.Syms); s == 0 || s > maxKeptTail {
		t.Errorf("after a small document the code scratch keeps %d slots, want 1..%d", s, maxKeptTail)
	}
}
