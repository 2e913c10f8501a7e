package lr_test

import (
	"testing"

	"aspen/internal/lang"
	"aspen/internal/lr"
)

func builtins() []*lang.Language { return append(lang.All(), lang.MiniC()) }

// TestBuiltinsMatchReference pins every built-in grammar's automaton,
// in both table classes, to the reference construction.
func TestBuiltinsMatchReference(t *testing.T) {
	for _, l := range builtins() {
		for _, mode := range []lr.Mode{lr.LALR, lr.CanonicalLR} {
			opts := lr.Options{Mode: mode, ResolveShiftReduce: l.ResolveShiftReduce}
			if _, err := lr.MatchReference(l.Grammar, opts); err != nil {
				t.Error(err)
			}
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	for _, l := range builtins() {
		opts := lr.Options{ResolveShiftReduce: l.ResolveShiftReduce}
		b.Run(l.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lr.Build(l.Grammar, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
