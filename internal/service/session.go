package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/sched"
)

// This file is the session face of the service: long-lived, mutable
// solver state behind opaque ids. A stateless request (service.go) ships
// its whole instance every time; a session is created once from an
// InstanceSpec, then mutated incrementally (MutationSpec) and re-solved.
// Under the hood each session owns a sched.Session, so re-solves after
// small mutations are warm-started instead of computed from scratch.
//
// Sessions share the service's digest result cache with the stateless
// path: a solve is keyed by the digest of the session's *current*
// instance spec, recomputed on every mutation. Mutating a session
// therefore can never serve a stale cached schedule (the digest moved),
// while two sessions replaying identical creation + mutation traces hit
// the same cache entries — the interplay the session tests pin down.
//
// Resource controls mirror the stateless path's: the registry is bounded
// by Config.MaxSessions (CreateSession answers ErrTooManySessions / 429
// at the cap), and a draining service refuses session work with
// ErrClosed / 503 across create, mutate, and solve alike. Session solves
// run on the caller's goroutine under the per-session lock — warm
// re-solves are cheap by design — rather than through the worker pool,
// so per-session mutate/solve streams serialize naturally instead of
// queueing.

// ErrNoSession is returned for unknown or dropped session ids.
var ErrNoSession = errors.New("service: no such session")

// ErrTooManySessions is returned by CreateSession at the MaxSessions cap.
var ErrTooManySessions = errors.New("service: session limit reached")

// ErrSessionsDisabled is returned by CreateSession and RestoreSession
// when the deployment opted out of sessions (MaxSessions < 0).
var ErrSessionsDisabled = errors.New("service: sessions disabled (MaxSessions < 0)")

// ErrSeqConflict is returned by a conditional mutate whose expected
// sequence number does not match the session's. It maps to 409 over
// HTTP and is the signal the cluster router's mutation-retry check
// reads: after a timed-out mutate, the router retries conditionally,
// and a conflict carrying seq == expected+len(mutations) proves the
// first attempt landed — the retry must not re-apply.
var ErrSeqConflict = errors.New("service: session sequence conflict")

// MutationSpec is one session mutation on the wire. Op selects the
// variant; exactly the fields that variant needs are read:
//
//	{"op": "add_job", "job": {...}}          append a job (value 0 → 1)
//	{"op": "remove_job", "index": 3}         delete job 3 (later jobs shift)
//	{"op": "block", "slot": {"proc":0,"time":5}}  mask a slot unavailable
//	{"op": "advance_horizon", "horizon": 48} grow the horizon
type MutationSpec struct {
	Op      string    `json:"op"`
	Job     *JobSpec  `json:"job,omitempty"`
	Index   int       `json:"index,omitempty"`
	Slot    *SlotSpec `json:"slot,omitempty"`
	Horizon int       `json:"horizon,omitempty"`
}

// sessionHandle is one live session: the solver state plus the canonical
// spec whose digest keys the result cache. The mutex serializes mutations
// and solves (sched.Session is single-threaded by contract). On a
// durable service the handle also owns the session's write-ahead
// journal (journal.go), guarded by the same mutex.
type sessionHandle struct {
	mu     sync.Mutex
	sess   *sched.Session
	spec   InstanceSpec
	digest string
	opts   sched.Options
	// seq counts accepted mutations over the session's lifetime; it is
	// persisted in snapshots so it stays monotone across restarts and
	// cross-process takeover (the mutation-retry check depends on that).
	seq     uint64
	journal *sessionJournal
}

// newHandle validates a wire spec and builds an unregistered session
// handle — the shared core of CreateSession and snapshot restore.
func (s *Service) newHandle(spec InstanceSpec) (*sessionHandle, error) {
	if spec.Mode != "" && spec.Mode != "all" {
		return nil, fmt.Errorf("service: sessions solve mode \"all\", got %q", spec.Mode)
	}
	if spec.Improve {
		return nil, errors.New("service: sessions do not support the improve pass")
	}
	req, err := BuildRequest(spec)
	if err != nil {
		return nil, err
	}
	req.Opts.Workers = s.cfg.probeWorkers(req.Opts.Workers)
	sess, err := sched.NewSession(req.Instance, req.Opts)
	if err != nil {
		return nil, err
	}
	// Own every slice a mutation appends to: the jobs list and the cost
	// chain's blocked lists. Without the copy, two sessions created from
	// one caller-built spec could share a backing array and a "block"
	// append in one would corrupt the other's spec — and therefore the
	// digest its cached schedules are keyed by.
	return &sessionHandle{
		sess:   sess,
		spec:   cloneInstanceSpec(spec),
		digest: req.InstanceKey,
		opts:   req.Opts,
	}, nil
}

// registerSession installs a handle under id, enforcing the MaxSessions
// cap and id uniqueness, and keeps the id sequence ahead of any
// restored id so future CreateSession calls cannot collide.
func (s *Service) registerSession(id string, h *sessionHandle) error {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		return fmt.Errorf("%w: %d live", ErrTooManySessions, s.cfg.MaxSessions)
	}
	if _, ok := s.sessions[id]; ok {
		return fmt.Errorf("service: session %q already exists", id)
	}
	s.sessions[id] = h
	s.bumpSessSeq(id)
	return nil
}

// CreateSession opens a session from a wire spec and returns its id and
// the digest of its (initial) instance. Sessions solve with ScheduleAll
// semantics: specs selecting a prize mode or the Improve pass are
// rejected. The ProbeWorkers default and the GOMAXPROCS clamp apply as on
// the stateless path.
// On a durable service the creation is journaled (and fsynced) before
// it is acknowledged; a storage failure answers ErrDurability and no
// session exists.
func (s *Service) CreateSession(spec InstanceSpec) (id, digest string, err error) {
	if err := s.sessionsOpen(); err != nil {
		return "", "", err
	}
	if s.cfg.MaxSessions < 0 {
		return "", "", ErrSessionsDisabled
	}
	h, err := s.newHandle(spec)
	if err != nil {
		return "", "", err
	}
	id = fmt.Sprintf("s%06d", s.sessSeq.Add(1))
	if s.durable() {
		j, jerr := s.createJournal(h.snapshotLocked(id))
		if jerr != nil {
			s.journalErrors.Add(1)
			return "", "", fmt.Errorf("%w: %v", ErrDurability, jerr)
		}
		h.journal = j
	}
	if err := s.registerSession(id, h); err != nil {
		if h.journal != nil {
			h.journal.discard()
		}
		return "", "", err
	}
	return id, h.digest, nil
}

// CreateSessionWithID is CreateSession under a caller-chosen id — the
// cluster router uses it so ids minted at the routing tier never
// collide with backend-assigned "s%06d" ones. The id must be non-empty,
// at most 128 bytes, start with a letter or digit, and contain only
// letters, digits, '.', '_', and '-' (it names a journal file). On a
// durable service an id whose journal already exists on disk is
// refused even when the session is not in memory, so a lazily-restoring
// backend cannot truncate acked state it has not loaded yet.
func (s *Service) CreateSessionWithID(id string, spec InstanceSpec) (digest string, err error) {
	if err := s.sessionsOpen(); err != nil {
		return "", err
	}
	if s.cfg.MaxSessions < 0 {
		return "", ErrSessionsDisabled
	}
	if err := validSessionID(id); err != nil {
		return "", err
	}
	if s.durable() {
		if f, err := s.cfg.FS.OpenFile(s.journalPath(id), os.O_RDONLY, 0); err == nil {
			f.Close()
			return "", fmt.Errorf("service: session %q already exists on disk", id)
		}
	}
	h, err := s.newHandle(spec)
	if err != nil {
		return "", err
	}
	if s.durable() {
		j, jerr := s.createJournal(h.snapshotLocked(id))
		if jerr != nil {
			s.journalErrors.Add(1)
			return "", fmt.Errorf("%w: %v", ErrDurability, jerr)
		}
		h.journal = j
	}
	if err := s.registerSession(id, h); err != nil {
		if h.journal != nil {
			h.journal.discard()
		}
		return "", err
	}
	return h.digest, nil
}

// validSessionID enforces the filesystem-safe id shape CreateSessionWithID
// documents.
func validSessionID(id string) error {
	if id == "" || len(id) > 128 {
		return fmt.Errorf("service: session id must be 1..128 bytes, got %d", len(id))
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case i > 0 && (c == '.' || c == '_' || c == '-'):
		default:
			return fmt.Errorf("service: session id %q: byte %d not in [A-Za-z0-9._-] (leading [A-Za-z0-9])", id, i)
		}
	}
	return nil
}

// sessionsOpen reports whether the service still accepts session work —
// a draining service refuses mutations and solves too, matching the
// stateless path's 503 contract.
func (s *Service) sessionsOpen() error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	return nil
}

// cloneCostSpec deep-copies the mutable parts of a cost spec (the
// blocked-slot lists down the base chain); scalar fields copy by value.
func cloneCostSpec(c CostSpec) CostSpec {
	c.Blocked = append([]SlotSpec(nil), c.Blocked...)
	if c.Base != nil {
		base := cloneCostSpec(*c.Base)
		c.Base = &base
	}
	return c
}

// session resolves an id to its live handle. On a durable service a
// miss falls through to the shared StateDir (takeover.go): in a cluster
// the journal a dead backend left behind IS the session, and the
// rehashed owner serves it by replaying snapshot + tail on first touch.
func (s *Service) session(id string) (*sessionHandle, error) {
	s.sessMu.Lock()
	h, ok := s.sessions[id]
	s.sessMu.Unlock()
	if ok {
		return h, nil
	}
	if s.durable() && s.cfg.MaxSessions >= 0 {
		return s.openByID(id)
	}
	return nil, fmt.Errorf("%w: %q", ErrNoSession, id)
}

// MutateSession applies the mutations in order and returns the digest of
// the session's new instance. On a rejected mutation the session
// reflects the successfully applied prefix (and the returned digest
// matches it) — mutations are not transactional. On a durable service
// each accepted mutation is journaled before the batch is acknowledged;
// if the journal cannot keep up with the acknowledged state (write or
// fsync failure), the session is dropped entirely — clients get
// ErrDurability now and ErrNoSession after — rather than risking a
// restart that silently serves a stale prefix the client saw mutate.
func (s *Service) MutateSession(id string, muts []MutationSpec) (digest string, err error) {
	digest, _, err = s.MutateSessionAt(id, -1, muts)
	return digest, err
}

// MutateSessionAt is MutateSession with sequence visibility: the
// returned seq counts every mutation the session has ever accepted.
// With expect >= 0 the call is conditional — it applies only when the
// session's current sequence equals expect, answering ErrSeqConflict
// (and the current digest and seq) otherwise. A router retrying a
// timed-out mutate sends the same expect again: if the first attempt
// landed, the retry conflicts at seq expect+len(muts) instead of
// double-applying.
func (s *Service) MutateSessionAt(id string, expect int64, muts []MutationSpec) (digest string, seq uint64, err error) {
	if err := s.sessionsOpen(); err != nil {
		return "", 0, err
	}
	h, err := s.session(id)
	if err != nil {
		return "", 0, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if expect >= 0 && uint64(expect) != h.seq {
		return h.digest, h.seq, fmt.Errorf("%w: session at seq %d, caller expected %d", ErrSeqConflict, h.seq, expect)
	}
	for i, m := range muts {
		if err := h.apply(m); err != nil {
			h.digest = InstanceDigest(h.spec)
			return h.digest, h.seq, fmt.Errorf("service: mutation %d (%s): %w", i, m.Op, err)
		}
		h.digest = InstanceDigest(h.spec)
		h.seq++
		if h.journal != nil {
			if jerr := h.journal.appendMutation(m, h.digest); jerr != nil {
				s.dropPoisonedLocked(id, h)
				return "", h.seq, fmt.Errorf("%w: mutation %d: %v (session dropped)", ErrDurability, i, jerr)
			}
		}
	}
	if h.journal != nil && s.cfg.CompactEvery > 0 && h.journal.mutsSince >= s.cfg.CompactEvery {
		fatal, cerr := h.journal.compact(h.snapshotLocked(id))
		if cerr != nil {
			if fatal {
				s.dropPoisonedLocked(id, h)
				return "", h.seq, fmt.Errorf("%w: compaction: %v (session dropped)", ErrDurability, cerr)
			}
			// The old journal is intact and appendable; compaction retries
			// after the next CompactEvery mutations.
			s.logf("powersched: session %s: compaction failed (%v); keeping journal", id, cerr)
		}
	}
	return h.digest, h.seq, nil
}

// dropPoisonedLocked removes a session whose journal can no longer
// record acknowledged state (h.mu held). The journal file is removed so
// a restart does not resurrect a session the client was told is gone.
func (s *Service) dropPoisonedLocked(id string, h *sessionHandle) {
	s.journalErrors.Add(1)
	if h.journal != nil {
		h.journal.discard()
		h.journal = nil
	}
	s.sessMu.Lock()
	delete(s.sessions, id)
	s.sessMu.Unlock()
	s.logf("powersched: session %s dropped: journal cannot record acknowledged state", id)
}

// apply performs one mutation on both the solver session and the
// canonical spec, keeping them describing the same instance.
func (h *sessionHandle) apply(m MutationSpec) error {
	switch m.Op {
	case "add_job":
		if m.Job == nil {
			return errors.New("missing job")
		}
		job := sched.Job{Value: m.Job.Value}
		if job.Value == 0 {
			job.Value = 1 // the BuildRequest default, mirrored
		}
		for _, sl := range m.Job.Allowed {
			job.Allowed = append(job.Allowed, sched.SlotKey{Proc: sl.Proc, Time: sl.Time})
		}
		if _, err := h.sess.AddJob(job); err != nil {
			return err
		}
		h.spec.Jobs = append(h.spec.Jobs, *m.Job)
		return nil
	case "remove_job":
		if err := h.sess.RemoveJob(m.Index); err != nil {
			return err
		}
		h.spec.Jobs = append(h.spec.Jobs[:m.Index:m.Index], h.spec.Jobs[m.Index+1:]...)
		return nil
	case "block":
		if m.Slot == nil {
			return errors.New("missing slot")
		}
		if err := h.sess.SetUnavailable(m.Slot.Proc, m.Slot.Time); err != nil {
			return err
		}
		if h.spec.Cost.Model == "unavailable" {
			h.spec.Cost.Blocked = append(h.spec.Cost.Blocked, *m.Slot)
		} else {
			base := h.spec.Cost
			h.spec.Cost = CostSpec{Model: "unavailable", Base: &base, Blocked: []SlotSpec{*m.Slot}}
		}
		return nil
	case "advance_horizon":
		if err := h.sess.AdvanceHorizon(m.Horizon); err != nil {
			return err
		}
		h.spec.Horizon = m.Horizon
		return nil
	default:
		return fmt.Errorf("unknown op %q", m.Op)
	}
}

// SolveSession solves the session's current instance. Identical content
// (same digest, same options) is answered from the shared result cache —
// stateless requests for the same instance share the entries — and a
// mutated session always re-solves, because its digest moved with the
// mutation. Cache misses are solved warm on the session and cached.
//
// The solve is bounded by ctx and Config.SolveTimeout: past the
// deadline the caller gets ctx's error (503 + Retry-After over HTTP)
// while the solve itself runs to completion under the session lock and
// still populates the session and digest caches — a retry after
// Retry-After is typically a cache hit.
func (s *Service) SolveSession(ctx context.Context, id string) Result {
	if err := s.sessionsOpen(); err != nil {
		return Result{Err: err}
	}
	h, err := s.session(id)
	if err != nil {
		return Result{Err: err}
	}
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SolveTimeout)
		defer cancel()
	}
	done := make(chan Result, 1)
	go func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		done <- s.solveSessionLocked(h)
	}()
	select {
	case res := <-done:
		return res
	case <-ctx.Done():
		s.canceled.Add(1)
		return Result{Err: fmt.Errorf("service: session solve abandoned: %w", ctx.Err())}
	}
}

// solveSessionLocked runs the cache-or-solve step; h.mu must be held.
func (s *Service) solveSessionLocked(h *sessionHandle) Result {
	s.submitted.Add(1)
	key := cacheKey(Request{InstanceKey: h.digest, Mode: ModeAll, Opts: h.opts})
	if hit, ok := s.cacheGet(key); ok {
		s.completed.Add(1)
		s.cacheHits.Add(1)
		return Result{Schedule: hit, CacheHit: true}
	}
	out, err := h.sess.Solve()
	s.completed.Add(1)
	if err != nil {
		s.errs.Add(1)
		return Result{Err: err}
	}
	s.cacheMisses.Add(1)
	s.cachePut(key, out)
	return Result{Schedule: out}
}

// SessionInfo is a point-in-time snapshot of one session.
type SessionInfo struct {
	ID      string `json:"id"`
	Digest  string `json:"digest"`
	Seq     uint64 `json:"seq"`
	Jobs    int    `json:"jobs"`
	Horizon int    `json:"horizon"`
	Solves  int    `json:"solves"`
	Warm    int    `json:"warm_solves"`
	Evals   int64  `json:"evals"`
}

// SessionInfo reports a session's current shape and solve accounting.
func (s *Service) SessionInfo(id string) (SessionInfo, error) {
	h, err := s.session(id)
	if err != nil {
		return SessionInfo{}, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	solves, warm, _ := h.sess.Stats()
	return SessionInfo{
		ID:      id,
		Digest:  h.digest,
		Seq:     h.seq,
		Jobs:    h.sess.Jobs(),
		Horizon: h.sess.Horizon(),
		Solves:  solves,
		Warm:    warm,
		Evals:   h.sess.TotalEvals(),
	}, nil
}

// DropSession discards a session and its journal. Cached results
// survive: they are keyed by content digest, not by session. On a
// durable service a session living only on disk (not yet lazily
// loaded) is dropped by removing its journal, so a DELETE is final
// whether or not the session was ever touched by this process.
func (s *Service) DropSession(id string) error {
	s.sessMu.Lock()
	h, ok := s.sessions[id]
	if !ok {
		s.sessMu.Unlock()
		if s.durable() && validSessionID(id) == nil {
			if err := s.cfg.FS.Remove(s.journalPath(id)); err == nil {
				return nil
			}
		}
		return fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	delete(s.sessions, id)
	s.sessMu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.journal != nil {
		h.journal.discard()
		h.journal = nil
	}
	return nil
}
