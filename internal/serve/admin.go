package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"aspen/internal/admit"
	"aspen/internal/lang"
	"aspen/internal/store"
)

// Admin control plane: dynamic registry mutations with hitless
// publication and write-ahead durability.
//
// Every mutation follows the same protocol under adminMu:
//
//  1. validate against the current snapshot (reject while draining —
//     before any journal write, so a drained server never appends);
//  2. build the replacement entries off to the side (compile, place,
//     warm pools) — the serving snapshot is untouched and requests keep
//     flowing against it;
//  3. journal the mutation (the commit point: an fsync'd record; a
//     crash after this replays the mutation, a crash before replays the
//     old state; the advisory partition record is written first so the
//     op record is always the last thing that becomes durable);
//  4. atomically publish the new snapshot;
//  5. retire replaced entries once their in-flight requests finish
//     (readiness dips meanwhile).
//
// Requests never block on a mutation: lookups read the snapshot
// pointer, in-flight work finishes on the entry it started on, and the
// swap is observable only as new requests landing on the new entry —
// the zero-drop property the hitless-reload test pins.

// Mutation failure modes the HTTP layer maps to statuses.
var (
	// ErrDraining rejects mutations after Drain.
	ErrDraining = errors.New("serve: server is draining")
	// ErrGrammarLoaded rejects adding a grammar that is already loaded.
	ErrGrammarLoaded = errors.New("serve: grammar already loaded")
	// ErrGrammarUnknown rejects operating on a name that resolves to no
	// loaded grammar (remove/swap) or no known definition (add).
	ErrGrammarUnknown = errors.New("serve: unknown grammar")
	// ErrLastGrammar rejects removing the only loaded grammar.
	ErrLastGrammar = errors.New("serve: cannot remove the last grammar")
)

// journalAppend write-ahead journals one mutation record (no-op
// without a durable store).
func (s *Server) journalAppend(r store.Record) error {
	if s.st == nil {
		return nil
	}
	t0 := time.Now()
	err := s.st.Journal.Append(r)
	s.m.journalCommitNS.ObserveInt(time.Since(t0).Nanoseconds())
	if err != nil {
		return fmt.Errorf("serve: journal append: %w", err)
	}
	s.m.journalAppends.Inc()
	return nil
}

// journalPartition records the fabric partition of ts — advisory state
// (replay recomputes the partition from membership) kept in the journal
// so an operator can read bank ownership history offline.
func (s *Server) journalPartition(ts *tenantSet) error {
	if s.st == nil {
		return nil
	}
	rec := store.Record{Op: store.OpPartition, Banks: s.fabric.Total()}
	for _, n := range ts.names {
		g := ts.byName[n]
		rec.Tenants = append(rec.Tenants, store.TenantRange{Name: n, Lo: g.bankLo, Hi: g.bankHi})
	}
	return s.journalAppend(rec)
}

// lookupLang resolves a grammar name to its definition: the known set
// first (startup languages and previously resolved names), then the
// configured resolver, then the built-ins. Caller holds adminMu.
func (s *Server) lookupLang(name string) *lang.Language {
	if l := s.known[name]; l != nil {
		return l
	}
	if l := resolveWith(s.opts.Resolver, name); l != nil {
		s.known[name] = l
		return l
	}
	return nil
}

// publish swaps the snapshot and retires every entry of old that next
// no longer references. Caller holds adminMu.
func (s *Server) publish(old, next *tenantSet) {
	s.tenants.Store(next)
	// Membership changed: recompute the overload plan (AIMD ceiling,
	// brownout shed ranks) against the new tenant set.
	s.applyOverloadPlan(next)
	s.m.reloadSwaps.Inc()
	for _, name := range old.names {
		g := old.byName[name]
		if next.byName[name] != g {
			s.retireEntry(g)
		}
	}
}

// retireEntry holds the readiness blip until a replaced entry's
// in-flight requests finish. The drainMu write-section is the
// retirement barrier: the new snapshot was published before this runs,
// so once the barrier is crossed every later admission resolves the
// replacement entry — no request can register on g after its Wait
// begins.
func (s *Server) retireEntry(g *grammarEntry) {
	// Readiness dips while the retirement is in flight (incremented
	// here, synchronously, so the mutation's caller observes the blip
	// before its response): a router health-checking /readyz pauses new
	// placements until the old entry has fully drained.
	s.retiring.Add(1)
	go func() {
		defer s.retiring.Add(-1)
		s.drainMu.Lock()
		//lint:ignore SA2001 empty write-section is the barrier itself
		s.drainMu.Unlock()
		g.inflight.Wait()
	}()
}

// currentLangs is the serving membership as language definitions, in
// registration order.
func currentLangs(ts *tenantSet) []*lang.Language {
	langs := make([]*lang.Language, 0, len(ts.names))
	for _, n := range ts.names {
		langs = append(langs, ts.byName[n].lang)
	}
	return langs
}

// AddGrammar loads name into the registry. Membership changes
// repartition the fabric, so every entry is rebuilt; old entries drain
// and retire.
func (s *Server) AddGrammar(name string) error {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	if s.draining.Load() {
		return ErrDraining
	}
	cur := s.tenants.Load()
	if _, ok := cur.byName[name]; ok {
		return fmt.Errorf("%w: %q", ErrGrammarLoaded, name)
	}
	l := s.lookupLang(name)
	if l == nil {
		return fmt.Errorf("%w: %q", ErrGrammarUnknown, name)
	}
	next, err := s.buildTenantSet(append(currentLangs(cur), l))
	if err != nil {
		return err
	}
	if err := s.journalPartition(next); err != nil {
		return err
	}
	if err := s.journalAppend(store.Record{Op: store.OpAddGrammar, Name: name}); err != nil {
		return err
	}
	s.publish(cur, next)
	return nil
}

// UploadGrammar admits a tenant-uploaded machine definition and loads
// it into the registry. The admission pipeline (internal/admit) runs
// before any journal write: a rejected upload mutates nothing and
// returns a *admit.Rejection carrying machine-readable diagnostics. An
// admitted upload journals the full (format, source, limits) tuple —
// replay re-runs the identical admission at boot, so the proven stack
// bound and machine fingerprint survive kill -9 bit-for-bit.
func (s *Server) UploadGrammar(name, format string, source []byte, lim admit.Limits) (*admit.Result, error) {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	if s.draining.Load() {
		return nil, ErrDraining
	}
	cur := s.tenants.Load()
	if _, ok := cur.byName[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrGrammarLoaded, name)
	}
	// Normalize once and journal the normalized limits, so replay
	// admission sees exactly the ceilings this admission enforced even
	// if defaults change across builds.
	lim = lim.Normalize()
	res, err := admit.Admit(name, format, source, lim)
	if err != nil {
		var rej *admit.Rejection
		if errors.As(err, &rej) {
			s.countRejection(rej)
		}
		return nil, err
	}
	next, err := s.buildTenantSet(append(currentLangs(cur), res.Language))
	if err != nil {
		return nil, err
	}
	if err := s.journalPartition(next); err != nil {
		return nil, err
	}
	if err := s.journalAppend(store.Record{
		Op: store.OpUpload, Name: name, Format: format, Source: source,
		MaxStates: lim.MaxStates, MaxDepth: lim.MaxDepth, MaxTableKB: lim.MaxTableKB,
	}); err != nil {
		return nil, err
	}
	s.known[name] = res.Language
	s.publish(cur, next)
	if c := s.m.admitAdmitted[format]; c != nil {
		c.Inc()
	}
	return res, nil
}

// RemoveGrammar unloads name. The last grammar cannot be removed — an
// empty registry serves nothing and would refuse to boot from its own
// journal.
func (s *Server) RemoveGrammar(name string) error {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	if s.draining.Load() {
		return ErrDraining
	}
	cur := s.tenants.Load()
	if _, ok := cur.byName[name]; !ok {
		return fmt.Errorf("%w: %q", ErrGrammarUnknown, name)
	}
	if len(cur.names) == 1 {
		return fmt.Errorf("%w: %q", ErrLastGrammar, name)
	}
	langs := make([]*lang.Language, 0, len(cur.names)-1)
	for _, n := range cur.names {
		if n != name {
			langs = append(langs, cur.byName[n].lang)
		}
	}
	next, err := s.buildTenantSet(langs)
	if err != nil {
		return err
	}
	if err := s.journalPartition(next); err != nil {
		return err
	}
	if err := s.journalAppend(store.Record{Op: store.OpRemoveGrammar, Name: name}); err != nil {
		return err
	}
	s.publish(cur, next)
	return nil
}

// SwapGrammar hitlessly rebuilds name's entry in place: same bank
// range, fresh compile and pools. In-flight requests finish on the old
// entry; new requests land on the new one; nothing is dropped.
func (s *Server) SwapGrammar(name string) error {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	if s.draining.Load() {
		return ErrDraining
	}
	cur := s.tenants.Load()
	old, ok := cur.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrGrammarUnknown, name)
	}
	repl, err := s.rebuildEntry(old)
	if err != nil {
		return err
	}
	next := cloneWith(cur, name, repl)
	if err := s.journalAppend(store.Record{Op: store.OpSwapGrammar, Name: name}); err != nil {
		return err
	}
	s.publish(cur, next)
	return nil
}

// Reload hitlessly rebuilds every loaded grammar (the SIGHUP path) and
// returns how many entries were swapped.
func (s *Server) Reload() (int, error) {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	if s.draining.Load() {
		return 0, ErrDraining
	}
	cur := s.tenants.Load()
	next := &tenantSet{
		byName: make(map[string]*grammarEntry, len(cur.names)),
		names:  append([]string(nil), cur.names...),
	}
	for _, name := range cur.names {
		repl, err := s.rebuildEntry(cur.byName[name])
		if err != nil {
			return 0, fmt.Errorf("serve: reload %s: %w", name, err)
		}
		next.byName[name] = repl
	}
	for _, name := range next.names {
		if err := s.journalAppend(store.Record{Op: store.OpSwapGrammar, Name: name}); err != nil {
			return 0, err
		}
	}
	s.publish(cur, next)
	return len(next.names), nil
}

// rebuildEntry constructs a replacement for old on the same bank range
// with the same fabric share. Caller holds adminMu.
func (s *Server) rebuildEntry(old *grammarEntry) (*grammarEntry, error) {
	l := s.lookupLang(old.name)
	if l == nil {
		l = old.lang
	}
	g, err := newGrammarEntry(s, l, old.cap.FabricBanks)
	if err != nil {
		return nil, fmt.Errorf("serve: grammar %s: %w", old.name, err)
	}
	g.bankLo, g.bankHi = old.bankLo, old.bankHi
	g.initChaos(s)
	return g, nil
}

// cloneWith copies ts with name's entry replaced.
func cloneWith(ts *tenantSet, name string, g *grammarEntry) *tenantSet {
	next := &tenantSet{
		byName: make(map[string]*grammarEntry, len(ts.byName)),
		names:  append([]string(nil), ts.names...),
	}
	for n, e := range ts.byName {
		next.byName[n] = e
	}
	next.byName[name] = g
	return next
}

// adminRequest is the POST /v1/admin/grammars body. The upload op adds
// format/source/limits; the other ops ignore them.
type adminRequest struct {
	Op      string `json:"op"` // add | remove | swap | reload | upload | weight
	Grammar string `json:"grammar"`
	// Upload fields: the source format ("grammar" | "mnrl" | "pda"),
	// the machine definition text, and optional admission ceilings.
	Format string       `json:"format,omitempty"`
	Source string       `json:"source,omitempty"`
	Limits admit.Limits `json:"limits,omitempty"`
	// Weight is the scheduling weight for the weight op: it overrides
	// the cost-derived default share for Grammar in the weighted-fair
	// scheduler (journaled; survives restart).
	Weight int `json:"weight,omitempty"`
}

// adminBodyLimit bounds the admin request body: the admission source
// ceiling plus generous JSON-escaping and envelope overhead.
const adminBodyLimit = int64(admit.MaxSourceBytes)*4 + 1<<16

// AdminResponse is the success body of an admin mutation.
type AdminResponse struct {
	Op       string `json:"op"`
	Grammar  string `json:"grammar,omitempty"`
	Swapped  int    `json:"swapped,omitempty"`
	Admitted bool   `json:"admitted,omitempty"`
	// Upload admission facts: the proven stack depth bound and machine
	// size of the newly admitted machine.
	StackBound int `json:"stackBound,omitempty"`
	States     int `json:"states,omitempty"`
	// Weight echoes the applied scheduling weight for the weight op.
	Weight   int           `json:"weight,omitempty"`
	Grammars []GrammarInfo `json:"grammars"`
}

// RejectionResponse is the 422 body of a rejected upload: the
// machine-readable admission diagnostics, verbatim from internal/admit.
type RejectionResponse struct {
	Op          string             `json:"op"`
	Grammar     string             `json:"grammar"`
	Format      string             `json:"format"`
	Admitted    bool               `json:"admitted"`
	Error       string             `json:"error"`
	Diagnostics []admit.Diagnostic `json:"diagnostics"`
}

func (s *Server) handleAdminGrammars(w http.ResponseWriter, r *http.Request) {
	var req adminRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, adminBodyLimit)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "malformed admin request: " + err.Error()})
		return
	}
	resp := AdminResponse{Op: req.Op, Grammar: req.Grammar}
	var err error
	switch req.Op {
	case "add":
		err = s.AddGrammar(req.Grammar)
	case "remove":
		err = s.RemoveGrammar(req.Grammar)
	case "swap":
		err = s.SwapGrammar(req.Grammar)
	case "reload":
		resp.Swapped, err = s.Reload()
	case "weight":
		err = s.SetWeight(req.Grammar, req.Weight)
		resp.Weight = req.Weight
	case "upload":
		sp := s.beginSpan(w, r)
		sp.grammar = req.Grammar
		t0 := sp.now()
		var res *admit.Result
		res, err = s.UploadGrammar(req.Grammar, req.Format, []byte(req.Source), req.Limits)
		sp.addSince(phaseAdmit, t0)
		var rej *admit.Rejection
		if errors.As(err, &rej) {
			sp.outcome, sp.status = outcomeRejected, http.StatusUnprocessableEntity
			s.recordSpan(&sp)
			writeJSON(w, http.StatusUnprocessableEntity, RejectionResponse{
				Op: req.Op, Grammar: req.Grammar, Format: req.Format,
				Error: rej.Error(), Diagnostics: rej.Diagnostics,
			})
			return
		}
		if err == nil {
			resp.Admitted = true
			resp.StackBound = res.StackBound
			resp.States = res.States
			sp.g = s.tenants.Load().byName[req.Grammar]
		}
		s.recordSpan(&sp)
	default:
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "unknown admin op " + fmt.Sprintf("%q", req.Op)})
		return
	}
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrDraining):
			status = http.StatusServiceUnavailable
		case errors.Is(err, ErrGrammarUnknown):
			status = http.StatusNotFound
		case errors.Is(err, ErrGrammarLoaded), errors.Is(err, ErrLastGrammar):
			status = http.StatusConflict
		case errors.Is(err, ErrWeightRange):
			status = http.StatusBadRequest
		}
		writeJSON(w, status, ErrorResponse{Error: err.Error()})
		return
	}
	resp.Grammars = s.Grammars()
	writeJSON(w, http.StatusOK, resp)
}
