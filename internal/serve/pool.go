package serve

import (
	"context"
	"io"
	"sync"

	"aspen/internal/stream"
)

// copyBufs pools the request-body copy buffers (shared by all
// grammars; a buffer has no tenant identity).
var copyBufs = sync.Pool{New: func() any {
	b := make([]byte, copyBufSize)
	return &b
}}

// parse drains body through a pooled parser. It returns the stream
// outcome plus a split error: inputErr is the document's fault (lex
// error, token mismatch, machine stack fault) and still carries a
// meaningful outcome; sysErr is transport/deadline trouble where no
// outcome exists. sp attributes time to the read and parse span phases
// (nil disables the clock reads entirely). At steady state this path
// performs zero compiles and O(1) allocations (alloc_test.go pins it).
func (g *grammarEntry) parse(ctx context.Context, body io.Reader, sp *span) (out stream.Outcome, inputErr, sysErr error) {
	p := g.parsers.Get().(*stream.Parser)
	p.Reset()
	defer g.parsers.Put(p)
	if inputErr, sysErr = pump(ctx, p, body, sp); sysErr != nil {
		return stream.Outcome{}, nil, sysErr
	}
	t0 := sp.now()
	out, err := p.Close()
	sp.addSince(phaseParse, t0)
	if inputErr == nil {
		inputErr = err
	}
	return out, inputErr, nil
}

// pump is the read loop of every unguarded parse, whole-document or
// durable-session chunk: it writes each read of body into p until EOF,
// the first document error (inputErr), or a context or transport
// failure (sysErr). It never closes p — the caller concludes the parse
// or, for a session chunk, checkpoints it. sp takes the read and parse
// phase time as in parse.
func pump(ctx context.Context, p *stream.Parser, body io.Reader, sp *span) (inputErr, sysErr error) {
	bufp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bufp)
	buf := *bufp
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := sp.now()
		n, rerr := body.Read(buf)
		sp.addSince(phaseRead, t0)
		if n > 0 {
			t0 = sp.now()
			_, werr := p.Write(buf[:n])
			sp.addSince(phaseParse, t0)
			if werr != nil {
				return werr, nil
			}
		}
		if rerr == io.EOF {
			return nil, nil
		}
		if rerr != nil {
			return nil, rerr
		}
	}
}
