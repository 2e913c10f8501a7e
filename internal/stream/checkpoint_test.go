package stream

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/lang"
	"aspen/internal/telemetry"
)

// writeChunks feeds doc to p using the chunk boundaries in cuts
// (ascending offsets into doc). It returns the first Write error.
func writeChunks(p *Parser, doc []byte, cuts []int) error {
	prev := 0
	for _, c := range cuts {
		if _, err := p.Write(doc[prev:c]); err != nil {
			return err
		}
		prev = c
	}
	if prev < len(doc) {
		if _, err := p.Write(doc[prev:]); err != nil {
			return err
		}
	}
	return nil
}

// TestStreamCheckpointReplay is the stream-level replay-equivalence
// property: checkpoint mid-stream, let the parser run (or diverge), then
// restore and re-write the bytes after the checkpoint — the Outcome,
// including lexer statistics, must equal the uninterrupted parse's.
func TestStreamCheckpointReplay(t *testing.T) {
	const seed = 0x57e4_c4e1
	r := rand.New(rand.NewSource(seed))
	t.Logf("seed %#x", seed)
	for _, l := range lang.All() {
		cm, err := l.Compile(compile.OptAll)
		if err != nil {
			t.Fatal(err)
		}
		doc := []byte(sampleOf[l.Name])
		for trial := 0; trial < 12; trial++ {
			// Random ascending chunk boundaries, and a checkpoint after a
			// random prefix of the chunks.
			var cuts []int
			for pos := 0; pos < len(doc); {
				pos += 1 + r.Intn(len(doc)/3+1)
				if pos < len(doc) {
					cuts = append(cuts, pos)
				}
			}
			cpAfter := r.Intn(len(cuts) + 1)

			// Reference: uninterrupted parse over the same chunking.
			ref, err := NewParser(l, cm, core.ExecOptions{CollectReports: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := writeChunks(ref, doc, cuts); err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			want, err := ref.Close()
			if err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}

			// Interrupted parse: checkpoint after cpAfter chunks, finish,
			// then roll back and replay the remainder.
			p, err := NewParser(l, cm, core.ExecOptions{CollectReports: true})
			if err != nil {
				t.Fatal(err)
			}
			var mark int
			if cpAfter < len(cuts) {
				mark = cuts[cpAfter]
			} else {
				mark = len(doc)
			}
			if err := writeChunks(p, doc[:mark], cuts[:cpAfter]); err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			var cp Checkpoint
			p.Checkpoint(&cp)

			rest := doc[mark:]
			var restCuts []int
			for _, c := range cuts {
				if c > mark {
					restCuts = append(restCuts, c-mark)
				}
			}

			// First continuation: run to completion (maximal divergence
			// from the checkpoint).
			if err := writeChunks(p, rest, restCuts); err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			if got, err := p.Close(); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: uninterrupted continuation diverged:\n got %+v (err %v)\nwant %+v", l.Name, got, err, want)
			}

			// Recovery path: restore the closed, finished parser and
			// replay the same chunks — full Outcome equality, lexer
			// statistics included.
			if err := p.Restore(&cp); err != nil {
				t.Fatalf("%s: restore rejected: %v", l.Name, err)
			}
			if err := writeChunks(p, rest, restCuts); err != nil {
				t.Fatalf("%s: replay write: %v", l.Name, err)
			}
			got, err := p.Close()
			if err != nil {
				t.Fatalf("%s: replay close: %v", l.Name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: replay-from-checkpoint diverged:\n got %+v\nwant %+v", l.Name, got, want)
			}

			// Coalesced replay (one Write for all remaining bytes — what
			// the serving layer's replay buffer does): every
			// chunking-invariant field must still match. Lexer ScanCycles
			// legitimately differ because the unconsumed tail is
			// re-scanned per Write.
			if err := p.Restore(&cp); err != nil {
				t.Fatalf("%s: coalesced restore rejected: %v", l.Name, err)
			}
			if _, err := p.Write(rest); err != nil {
				t.Fatalf("%s: coalesced replay write: %v", l.Name, err)
			}
			got2, err := p.Close()
			if err != nil {
				t.Fatalf("%s: coalesced replay close: %v", l.Name, err)
			}
			if got2.Accepted != want.Accepted || got2.Tokens != want.Tokens ||
				got2.Bytes != want.Bytes || !reflect.DeepEqual(got2.Result, want.Result) {
				t.Fatalf("%s: coalesced replay diverged:\n got %+v\nwant %+v", l.Name, got2, want)
			}
		}
	}
}

// TestStreamRestoreClearsFailure pins that Restore discards a poisoned
// continuation: a parser that hit a lex error after the checkpoint
// replays cleanly.
func TestStreamRestoreClearsFailure(t *testing.T) {
	l := lang.JSON()
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParser(l, cm, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write([]byte(`[1, 2, `)); err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	p.Checkpoint(&cp)
	if _, err := p.Write([]byte{0x01}); err == nil { // not a JSON byte
		t.Fatal("expected lex error")
	}
	if _, err := p.Write([]byte(`3]`)); err == nil {
		t.Fatal("poisoned parser accepted a write")
	}
	if err := p.Restore(&cp); err != nil {
		t.Fatalf("restore rejected: %v", err)
	}
	if _, err := p.Write([]byte(`3]`)); err != nil {
		t.Fatalf("restored parser: %v", err)
	}
	out, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatalf("restored parse rejected: %+v", out)
	}
}

// TestStreamCheckpointTelemetryMonotone pins that rollback+replay keeps
// the cumulative counters monotone (replayed work counts as work; deltas
// never go negative).
func TestStreamCheckpointTelemetryMonotone(t *testing.T) {
	l := lang.JSON()
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParser(l, cm, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	p.EnableTelemetry(reg)
	doc := []byte(lang.JSONSample)
	half := len(doc) / 2
	if _, err := p.Write(doc[:half]); err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	p.Checkpoint(&cp)
	tokensBefore := reg.Counter("stream_tokens_total", "").Value()
	if _, err := p.Write(doc[half:]); err != nil {
		t.Fatal(err)
	}
	if err := p.Restore(&cp); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(doc[half:]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}
	tokensAfter := reg.Counter("stream_tokens_total", "").Value()
	if tokensAfter < tokensBefore {
		t.Fatalf("stream_tokens_total went backwards: %d -> %d", tokensBefore, tokensAfter)
	}
	// The second half was parsed twice; the counter reflects both passes.
	whole, err := l.Parse(cm, doc, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tokensAfter <= int64(whole.Tokens) {
		t.Errorf("replayed work not counted: counter %d, single-pass tokens %d", tokensAfter, whole.Tokens)
	}
}

// TestStreamCheckpointDigestRejectsTamper pins the snapshot integrity
// seal at stream level: corrupting either the stream fields or the
// embedded machine checkpoint makes Restore refuse with
// core.ErrCheckpointCorrupt, leaving the parser unpoisoned.
func TestStreamCheckpointDigestRejectsTamper(t *testing.T) {
	l := lang.JSON()
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParser(l, cm, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write([]byte(`[1, 2, `)); err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	p.Checkpoint(&cp)

	streamTamper := cp
	streamTamper.Tokens += 5
	if err := p.Restore(&streamTamper); !errors.Is(err, core.ErrCheckpointCorrupt) {
		t.Fatalf("stream-field tamper: Restore = %v, want ErrCheckpointCorrupt", err)
	}
	execTamper := cp
	execTamper.Exec.Pos++
	if err := p.Restore(&execTamper); !errors.Is(err, core.ErrCheckpointCorrupt) {
		t.Fatalf("exec-field tamper: Restore = %v, want ErrCheckpointCorrupt", err)
	}

	// The parser survives the refusals and finishes the document.
	if err := p.Restore(&cp); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write([]byte(`3]`)); err != nil {
		t.Fatal(err)
	}
	out, err := p.Close()
	if err != nil || !out.Accepted {
		t.Fatalf("parse after refused restores: out=%+v err=%v", out, err)
	}
}

// A checkpoint naming a lexer mode this parser's lexer lacks — sealed,
// so it passes the integrity check — is refused with an error and
// leaves the parser as it was.
func TestStreamRestoreUnknownMode(t *testing.T) {
	l := lang.XML()
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParser(l, cm, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write([]byte(`<a x="1">text<b`)); err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	p.Checkpoint(&cp)
	if cp.Mode != "tagname" {
		t.Fatalf("checkpoint mode = %q, want the name %q", cp.Mode, "tagname")
	}
	bad := cp
	bad.Mode = "nosuch"
	bad.Seal()
	if err := p.Restore(&bad); err == nil {
		t.Fatal("Restore accepted a mode the lexer lacks")
	}
	if _, err := p.Write([]byte(`/></a>`)); err != nil {
		t.Fatal(err)
	}
	if out, err := p.Close(); err != nil || !out.Accepted {
		t.Fatalf("parse after the refused restore: out=%+v err=%v", out, err)
	}
}

// TestJamPosIsTokenStart pins where a jam is recorded: a checkpoint's
// JamPos is the start offset of the token the machine jammed on, as
// whole-input Tokenize places it, wherever the jam happens — inside a
// chunk, on the first code of a later chunk (a token held back across
// the boundary), or in Close's final flush.
func TestJamPosIsTokenStart(t *testing.T) {
	l := lang.JSON()
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	lx, err := l.Lexer()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		chunks []string
		close  bool
	}{
		{"mid-chunk", []string{`[1, 2]] , 3`}, false},
		{"held-back", []string{`{"a": [1, 2]} 4`, `5, 6`}, false},
		{"close", []string{`[1, 2] 45`}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := NewParser(l, cm, core.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, ch := range c.chunks {
				if _, err := p.Write([]byte(ch)); err != nil {
					t.Fatal(err)
				}
			}
			var cp Checkpoint
			p.Checkpoint(&cp)
			if cp.Jammed == c.close {
				t.Fatalf("jammed %v before Close, want %v", cp.Jammed, !c.close)
			}
			if c.close {
				if _, err := p.Close(); err != nil {
					t.Fatal(err)
				}
				p.Checkpoint(&cp)
			}
			if !cp.Jammed {
				t.Fatal("the parser did not jam")
			}
			doc := strings.Join(c.chunks, "")
			toks, _, err := lx.Tokenize([]byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			if want := toks[cp.Tokens-1].Start; cp.JamPos != want {
				t.Fatalf("JamPos = %d, want %d, the start of token %d (%q) in %q",
					cp.JamPos, want, cp.Tokens-1, toks[cp.Tokens-1].Text([]byte(doc)), doc)
			}
		})
	}
}
