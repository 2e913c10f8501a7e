package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"aspen/internal/store"
	"aspen/internal/stream"
)

// Durable parse sessions. A client parsing a document larger than one
// request — or one that must survive a server restart — names its work:
//
//	POST /v1/parse/{grammar}?session=ID          append a chunk
//	POST /v1/parse/{grammar}?session=ID&final=1  append and conclude
//
// After each non-final chunk the parser's self-sealed checkpoint is
// written atomically to the durable store (Options.Store), and the
// response reports Partial plus the cumulative byte/token offsets. The
// next request — minutes later, or after a kill -9 and restart — loads
// the image, verifies both integrity seals, and resumes mid-token if
// need be. A failed transfer leaves the previous checkpoint untouched,
// so the client retries from the last acknowledged offset. A stored
// image that fails its seals (bit rot, torn copy) is refused with 410
// and counted on checkpoint_store_corrupt_total — a session is never
// resumed from bytes the parser cannot prove sound.

// sessionJar serializes access per session key: two concurrent chunks
// for one session would interleave into the parser nondeterministically,
// so the second answers 409.
type sessionJar struct {
	mu   sync.Mutex
	busy map[string]struct{}
}

func (j *sessionJar) acquire(key string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.busy == nil {
		j.busy = make(map[string]struct{})
	}
	if _, taken := j.busy[key]; taken {
		return false
	}
	j.busy[key] = struct{}{}
	return true
}

func (j *sessionJar) release(key string) {
	j.mu.Lock()
	delete(j.busy, key)
	j.mu.Unlock()
}

// checkpoints pools session checkpoint scratch (the images embed
// fixed-size machine state and are worth reusing).
var checkpoints = sync.Pool{New: func() any { return new(stream.Checkpoint) }}

// sessionKey is the checkpoint-store key for one (grammar, session)
// pair. The grammar name participates so a session cannot be resumed
// under a different machine, and so Keys() groups images legibly.
func sessionKey(grammar, id string) string { return "sess-" + grammar + "-" + id }

// serveSession handles one durable-session chunk. The caller has
// admitted the request and holds its scheduler grant; this owns the
// response and the span's disposition (checkpoint load/save time lands
// in the persist phase).
func (s *Server) serveSession(w http.ResponseWriter, ctx context.Context, g *grammarEntry, body io.Reader, id string, final bool, start time.Time, queueNS int64, sp *span) {
	if s.st == nil {
		s.writeErr(w, sp, g, http.StatusBadRequest, outcomeError,
			"durable sessions require a state directory (start aspend with -state-dir)")
		return
	}
	key := sessionKey(g.name, id)
	if !store.ValidKey(key) {
		s.writeErr(w, sp, g, http.StatusBadRequest, outcomeError, "invalid session id "+id)
		return
	}
	if !s.sessions.acquire(key) {
		s.writeErr(w, sp, g, http.StatusConflict, outcomeDenied,
			"session "+id+" has a request in flight")
		return
	}
	defer s.sessions.release(key)

	p := g.parsers.Get().(*stream.Parser)
	p.Reset()
	defer g.parsers.Put(p)

	cp := checkpoints.Get().(*stream.Checkpoint)
	defer checkpoints.Put(cp)

	// Resume, if the session has history.
	t0 := sp.now()
	err := s.st.Checkpoints.Load(key, cp)
	sp.addSince(phasePersist, t0)
	switch {
	case err == nil:
		if rerr := p.Restore(cp); rerr != nil {
			// The image passed its seals but this machine refuses it — the
			// grammar was swapped for an incompatible build underneath the
			// session. The session is unresumable; say so once and forget it.
			s.m.ckptCorrupt.Inc()
			_ = s.st.Checkpoints.Delete(key)
			s.writeErr(w, sp, g, http.StatusGone, outcomeError,
				"session "+id+" cannot resume on the current grammar build: "+rerr.Error())
			return
		}
	case errors.Is(err, os.ErrNotExist):
		// Fresh session.
	case errors.Is(err, store.ErrCheckpointCorrupt):
		s.m.ckptCorrupt.Inc()
		_ = s.st.Checkpoints.Delete(key)
		s.writeErr(w, sp, g, http.StatusGone, outcomeError,
			"stored checkpoint for session "+id+" failed its integrity seals")
		return
	default:
		g.m.errors.Inc()
		s.writeErr(w, sp, g, http.StatusInternalServerError, outcomeError, err.Error())
		return
	}

	inputErr, sysErr := pump(ctx, p, body, sp)
	if sysErr != nil {
		// Transport failure or deadline mid-chunk: the stored checkpoint
		// is untouched, so the client resumes from the last acknowledged
		// offset.
		s.writeSysErr(w, sp, g, sysErr)
		return
	}

	if inputErr == nil && !final {
		// Checkpoint and acknowledge. The response's Bytes/Tokens are the
		// durable offsets: everything up to them survives kill -9.
		t0 = sp.now()
		p.Checkpoint(cp)
		err := s.st.Checkpoints.Save(key, cp)
		sp.addSince(phasePersist, t0)
		if err != nil {
			g.m.errors.Inc()
			s.writeErr(w, sp, g, http.StatusInternalServerError, outcomeError,
				"persisting session checkpoint: "+err.Error())
			return
		}
		resp := ParseResponse{
			Grammar: g.name,
			Session: id,
			Partial: true,
			Bytes:   cp.Offset + len(cp.Tail),
			Tokens:  cp.Tokens,
			QueueNS: queueNS,
			ParseNS: time.Since(start).Nanoseconds() - queueNS,
		}
		sp.outcome = outcomePartial
		sp.bytes = int64(resp.Bytes)
		total := time.Since(start).Nanoseconds()
		s.m.requestNS.ObserveInt(total)
		g.m.requestNS.ObserveInt(total)
		t0 = sp.now()
		writeJSON(w, http.StatusOK, resp)
		sp.addSince(phaseRespond, t0)
		return
	}

	// Conclusion: a final chunk, or a document error that ends the
	// session early. Either way the stored image is spent.
	t0 = sp.now()
	out, cerr := p.Close()
	sp.addSince(phaseParse, t0)
	if inputErr == nil {
		inputErr = cerr
	}
	t0 = sp.now()
	_ = s.st.Checkpoints.Delete(key)
	sp.addSince(phasePersist, t0)
	s.respond(w, sp, g, id, out, inputErr, start, queueNS)
}
