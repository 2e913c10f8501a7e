package serve

import (
	"errors"
	"io"
	"net/http"
	"os"
	"strconv"

	"aspen/internal/store"
	"aspen/internal/stream"
	"aspen/internal/telemetry"
)

// Session checkpoint handoff: the node-side half of cross-node
// failover. A fleet router replicates each durable session's latest
// sealed checkpoint by GETting it from the owning node after every
// acknowledged chunk; when that node dies, the router PUTs the image to
// a replacement node and resumes the stream there. Both directions move
// the exact bytes the checkpoint store holds — the seals travel with
// the image, so a copy torn in transit is refused (422), and an image
// taken on a different machine build is refused (410) before it can
// resume into silently wrong behavior. PR 5's Restore-refuses-mismatch
// contract is what makes this a file transfer instead of new theory.

// HandoffResponse is the PUT acknowledgment: the durable offsets of the
// accepted image, so the router can sanity-check the resume point.
type HandoffResponse struct {
	Grammar string `json:"grammar"`
	Session string `json:"session"`
	Bytes   int    `json:"bytes"`
	Tokens  int    `json:"tokens"`
}

// maxHandoffBytes caps one shipped checkpoint image. Images embed the
// machine snapshot plus the untokenized tail; far below this in
// practice.
const maxHandoffBytes = 64 << 20

// handoffSession resolves the common preconditions of both handoff
// verbs: a durable store, a loaded grammar, a valid session key, and
// exclusive access to the session. Returns ok=false with the response
// already written.
func (s *Server) handoffSession(w http.ResponseWriter, r *http.Request) (g *grammarEntry, key string, ok bool) {
	if s.st == nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: "session handoff requires a state directory (start aspend with -state-dir)"})
		return nil, "", false
	}
	name, id := r.PathValue("grammar"), r.PathValue("id")
	g = s.grammar(name)
	if g == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown grammar " + name})
		return nil, "", false
	}
	key = sessionKey(name, id)
	if !store.ValidKey(key) {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "invalid session id " + id})
		return nil, "", false
	}
	if !s.sessions.acquire(key) {
		writeJSON(w, http.StatusConflict, ErrorResponse{Error: "session " + id + " has a request in flight"})
		return nil, "", false
	}
	return g, key, true
}

// handleSessionGet ships the session's latest sealed checkpoint image,
// exactly as stored. 404 when the session has no durable state (fresh,
// or already concluded); 410 when the stored image fails its seals.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	g, key, ok := s.handoffSession(w, r)
	if !ok {
		return
	}
	defer s.sessions.release(key)
	data, cp, err := s.st.Checkpoints.LoadBytes(key)
	switch {
	case err == nil:
	case errors.Is(err, os.ErrNotExist):
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "no stored checkpoint for session " + r.PathValue("id")})
		return
	case errors.Is(err, store.ErrCheckpointCorrupt):
		s.m.ckptCorrupt.Inc()
		_ = s.st.Checkpoints.Delete(key)
		writeJSON(w, http.StatusGone, ErrorResponse{Error: "stored checkpoint for session " + r.PathValue("id") + " failed its integrity seals"})
		return
	default:
		g.m.errors.Inc()
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Aspen-Session-Bytes", strconv.Itoa(cp.Offset+len(cp.Tail)))
	w.Header().Set("X-Aspen-Machine", telemetry.TraceIDString(cp.Machine))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleSessionDelete discards a session's durable state without
// concluding it — the router's reset verb. Before re-sending a chunk
// whose first delivery ended in uncertainty (the node may have
// persisted it without the ack reaching anyone), the router restores
// the node to the acknowledged prefix: PUT of its cached image, or
// this DELETE when no bytes were ever acknowledged. Idempotent —
// deleting an absent checkpoint answers 200.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	g, key, ok := s.handoffSession(w, r)
	if !ok {
		return
	}
	defer s.sessions.release(key)
	if err := s.st.Checkpoints.Delete(key); err != nil {
		g.m.errors.Inc()
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, HandoffResponse{Grammar: g.name, Session: r.PathValue("id")})
}

// handleSessionPut accepts a shipped checkpoint image for this node to
// resume from. The image must pass both integrity seals and restore on
// this node's parser (422 — a torn or forged upload must never be
// trusted) and must have been taken on the exact machine build this
// node serves the grammar with (410, the same non-retryable verdict
// Restore's ErrMachineMismatch gets — shipping it anywhere else cannot
// succeed either, so the router must not retry).
func (s *Server) handleSessionPut(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server is draining"})
		return
	}
	g, key, ok := s.handoffSession(w, r)
	if !ok {
		return
	}
	defer s.sessions.release(key)
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxHandoffBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "reading checkpoint image: " + err.Error()})
		return
	}
	var cp stream.Checkpoint
	if uerr := cp.UnmarshalBinary(data); uerr != nil || !cp.Verify() || !cp.Exec.Verify() {
		s.m.ckptCorrupt.Inc()
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{
			Error: "uploaded checkpoint image failed its integrity seals (torn or corrupt; not stored)"})
		return
	}
	if mfp := g.cm.Fingerprint(); cp.Machine != mfp {
		writeJSON(w, http.StatusGone, ErrorResponse{
			Error: "session " + r.PathValue("id") + " cannot resume on this node's " + g.name +
				" build: " + stream.ErrMachineMismatch.Error()})
		return
	}
	// Sealed and from this build, the image can still be unrestorable (a
	// forged empty machine stack): refuse it now rather than store an
	// image every later chunk of the session would fail on.
	p := g.parsers.Get().(*stream.Parser)
	rerr := p.Restore(&cp)
	p.Reset()
	g.parsers.Put(p)
	if rerr != nil {
		s.m.ckptCorrupt.Inc()
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{
			Error: "uploaded checkpoint image does not restore (not stored): " + rerr.Error()})
		return
	}
	if serr := s.st.Checkpoints.SaveBytes(key, data); serr != nil {
		g.m.errors.Inc()
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: serr.Error()})
		return
	}
	writeJSON(w, http.StatusOK, HandoffResponse{
		Grammar: g.name,
		Session: r.PathValue("id"),
		Bytes:   cp.Offset + len(cp.Tail),
		Tokens:  cp.Tokens,
	})
}
