package lexer

import (
	"reflect"
	"testing"
)

func intoSpec(t *testing.T) *Lexer {
	t.Helper()
	l, err := New(Spec{Name: "into", Rules: []Rule{
		{Name: "WORD", Pattern: "[a-z]+"},
		{Name: "NUM", Pattern: "[0-9]+"},
		{Name: "WS", Pattern: " +", Skip: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// The Into variants are pure buffer-reuse forms: identical tokens,
// stats and modes, appended into the caller's slice.
func TestTokenizeIntoEquivalence(t *testing.T) {
	input := []byte("abc 123 de 4 fgh")
	l := intoSpec(t)
	wantToks, wantN, wantMode, wantStats, wantErr := l.TokenizeChunk(input, DefaultMode)
	buf := make([]Token, 0, 1) // deliberately too small: must grow correctly
	gotToks, gotN, gotMode, gotStats, gotErr := l.TokenizeChunkInto(buf, input, DefaultMode)
	if !reflect.DeepEqual(wantToks, gotToks) || wantN != gotN || wantMode != gotMode ||
		wantStats != gotStats || (wantErr == nil) != (gotErr == nil) {
		t.Errorf("chunk-into mismatch:\nwant %v %d %q %+v %v\ngot  %v %d %q %+v %v",
			wantToks, wantN, wantMode, wantStats, wantErr, gotToks, gotN, gotMode, gotStats, gotErr)
	}

	rToks, rStats, rMode, rErr := l.TokenizeResume(input, DefaultMode)
	iToks, iStats, iMode, iErr := l.TokenizeResumeInto(nil, input, DefaultMode)
	if !reflect.DeepEqual(rToks, iToks) || rStats != iStats || rMode != iMode ||
		(rErr == nil) != (iErr == nil) {
		t.Errorf("resume-into mismatch")
	}
}

// Reusing the destination slice across calls must not corrupt earlier
// results when the caller re-slices, and must reuse capacity.
func TestTokenizeIntoReuse(t *testing.T) {
	l := intoSpec(t)
	var buf []Token
	toks, _, _, _, err := l.TokenizeChunkInto(buf[:0], []byte("aa 11 bb "), DefaultMode)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 {
		t.Fatalf("got %d tokens, want 3", len(toks))
	}
	buf = toks
	toks2, _, _, _, err := l.TokenizeChunkInto(buf[:0], []byte("c 2 "), DefaultMode)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks2) != 2 || toks2[0].Name != "WORD" || toks2[1].Name != "NUM" {
		t.Fatalf("reused-buffer tokens wrong: %+v", toks2)
	}
}

// A steady-state scan into a reused buffer allocates nothing: the
// merged table is read-only and shared, and the scan keeps its state
// in locals.
func TestTokenizeIntoSteadyStateAllocs(t *testing.T) {
	l := intoSpec(t)
	input := []byte("abc 123 de 4 fgh 55 iii 666 jj 7 kkk 88 l 9 mm 10")
	var buf []Token
	scan := func() {
		toks, _, _, _, err := l.TokenizeChunkInto(buf[:0], input, DefaultMode)
		if err != nil {
			t.Fatal(err)
		}
		buf = toks
	}
	scan() // warm-up: grow buf
	if allocs := testing.AllocsPerRun(500, scan); allocs != 0 {
		t.Errorf("steady-state scan = %v allocs, want 0", allocs)
	}
}
