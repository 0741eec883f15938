package mpi

// Elastic membership: the bookkeeping half of the elastic runtime. A
// Membership tracks the current rank-pool size and its epoch (a counter
// that increments on every size or placement change), and runs the join
// protocol for candidates that want to enter a running computation:
//
//	announce  — the candidate frames a JoinAnnounce through the JoinBus
//	            (sequence-numbered + checksummed, see join.go) and
//	            waits for admission with a TTL;
//	handshake — the driver, at an SCF iteration boundary, moves every
//	            announced candidate into the checkpoint handshake
//	            (BeginRebalance) and stops the running epoch;
//	commit    — the driver hands the last CRC-verified checkpoint to the
//	            admitted candidates (CommitJoins), the pool grows, and
//	            the epoch increments — the restarted computation includes
//	            the new ranks from its first iteration;
//	expire    — a candidate not admitted within the TTL expires and
//	            re-announces after a full-jitter backoff (JoinBackoff),
//	            so a wedged driver cannot strand a herd of candidates in
//	            lockstep retries.
//
// Shrink (rank death) and migration (straggler re-host, same size but
// new placement) also advance the epoch: any layer that caches
// per-world state — straggler windows, lease cycles, worker pools —
// keys it by epoch and never reads a stale world's data.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// JoinState is a join ticket's position in the protocol state machine.
type JoinState int

const (
	// JoinAnnounced: framed through the bus, waiting for the driver to
	// reach an iteration boundary.
	JoinAnnounced JoinState = iota
	// JoinHandshake: the driver is stopping the running epoch to admit
	// this candidate (checkpoint handshake in flight).
	JoinHandshake
	// JoinCommitted: admitted; the ticket carries the checkpoint.
	JoinCommitted
	// JoinExpired: the TTL lapsed before admission; the candidate should
	// re-announce after JoinBackoff.
	JoinExpired
	// JoinAborted: the driver abandoned the handshake (e.g. the epoch
	// died for a different reason); the ticket reverts to announced-like
	// retry semantics on the candidate side.
	JoinAborted
)

func (s JoinState) String() string {
	switch s {
	case JoinAnnounced:
		return "announced"
	case JoinHandshake:
		return "handshake"
	case JoinCommitted:
		return "committed"
	case JoinExpired:
		return "expired"
	case JoinAborted:
		return "aborted"
	}
	return fmt.Sprintf("JoinState(%d)", int(s))
}

// JoinTicket is one candidate's pending join.
type JoinTicket struct {
	Host        string
	Ranks       int
	Attempt     int // 0-based announce attempt (for backoff)
	Seq         int64
	AnnouncedAt time.Time
	Deadline    time.Time

	mu         sync.Mutex
	state      JoinState
	checkpoint []byte
	admitted   chan struct{}
}

// State returns the ticket's current protocol state.
func (t *JoinTicket) State() JoinState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

func (t *JoinTicket) setState(s JoinState) {
	t.mu.Lock()
	t.state = s
	t.mu.Unlock()
}

// Checkpoint returns the checkpoint handed over at commit (nil before).
func (t *JoinTicket) Checkpoint() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.checkpoint
}

// AwaitAdmission blocks until the driver commits this ticket (returning
// the handshake checkpoint) or the wait times out (the candidate should
// then re-announce after JoinBackoff(host, attempt+1)).
func (t *JoinTicket) AwaitAdmission(timeout time.Duration) ([]byte, error) {
	select {
	case <-t.admitted:
		return t.Checkpoint(), nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("mpi: join of %q (%d ranks) not admitted within %v",
			t.Host, t.Ranks, timeout)
	}
}

// MembershipEvent is one membership transition, for experiment reports
// and tests.
type MembershipEvent struct {
	Time   time.Time
	Kind   string // announce | handshake | commit | expire | abort | grow | shrink | migrate
	Detail string
	Epoch  int64
	Size   int
}

// DefaultJoinTTL bounds how long an announced candidate waits for the
// driver to reach an iteration boundary before it expires and backs off.
const DefaultJoinTTL = 30 * time.Second

// Membership is the elastic rank pool of one computation (or one serving
// replica's worker pool). Concurrency-safe.
type Membership struct {
	mu          sync.Mutex
	size        int
	epoch       int64
	joinTTL     time.Duration
	pending     []*JoinTicket
	bus         *JoinBus
	tel         *telemetry.Session
	rebalancing bool
	events      []MembershipEvent
	now         func() time.Time // test hook
}

// NewMembership returns a pool of the given initial size (min 1). tel
// (optional) receives the elastic.* counters and gauges.
func NewMembership(size int, tel *telemetry.Session) *Membership {
	if size < 1 {
		size = 1
	}
	m := &Membership{
		size:    size,
		joinTTL: DefaultJoinTTL,
		bus:     NewJoinBus(tel),
		tel:     tel,
		now:     time.Now,
	}
	m.gauge("elastic.pool_size", float64(size))
	m.gauge("elastic.pool_epoch", 0)
	m.gauge("elastic.rebalance_inflight", 0)
	return m
}

func (m *Membership) count(name string, n int64) {
	if m.tel != nil {
		m.tel.Counter(name).Add(n)
	}
}

func (m *Membership) gauge(name string, v float64) {
	if m.tel != nil {
		m.tel.Gauge(name).Set(v)
	}
}

// Size returns the current rank-pool size.
func (m *Membership) Size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.size
}

// Epoch returns the membership epoch: incremented on every grow, shrink,
// or migration.
func (m *Membership) Epoch() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Rebalancing reports whether a join/rebalance handshake is in flight
// (readiness probes return 503 during this window).
func (m *Membership) Rebalancing() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rebalancing
}

// Events returns a copy of the transition log.
func (m *Membership) Events() []MembershipEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]MembershipEvent(nil), m.events...)
}

// event appends to the transition log; caller holds the lock.
func (m *Membership) event(kind, detail string) {
	m.events = append(m.events, MembershipEvent{
		Time: m.now(), Kind: kind, Detail: detail, Epoch: m.epoch, Size: m.size,
	})
}

// Announce frames a JoinAnnounce for the candidate through the bus and
// returns its ticket. attempt is 0 for a first announce; an expired
// candidate re-announces with attempt+1 after JoinBackoff.
func (m *Membership) Announce(ranks int, host string) *JoinTicket {
	return m.announce(ranks, host, 0)
}

// ReAnnounce retries an expired/aborted ticket. It returns the new
// ticket and the full-jitter backoff the candidate should wait before
// the announce takes effect (tests apply it synthetically; a live
// candidate sleeps it).
func (m *Membership) ReAnnounce(t *JoinTicket) (*JoinTicket, time.Duration) {
	attempt := t.Attempt + 1
	return m.announce(t.Ranks, t.Host, attempt), JoinBackoff(t.Host, attempt)
}

func (m *Membership) announce(ranks int, host string, attempt int) *JoinTicket {
	if ranks < 1 {
		ranks = 1
	}
	seq := m.bus.Send(JoinFrame{
		Kind: JoinAnnounce, Sender: host, Epoch: m.Epoch(), Ranks: ranks,
		Payload: []int{attempt},
	})
	m.drainBus()
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := len(m.pending) - 1; i >= 0; i-- {
		if t := m.pending[i]; t.Host == host && t.Seq == seq {
			return t
		}
	}
	// The frame was dropped as a duplicate (bus chaos); surface an
	// already-expired ticket so the candidate backs off and retries.
	t := &JoinTicket{Host: host, Ranks: ranks, Attempt: attempt,
		AnnouncedAt: m.now(), admitted: make(chan struct{})}
	t.state = JoinExpired
	return t
}

// drainBus materializes every deliverable frame into the pending set.
// Duplicate, reordered, or corrupted announces were already healed by
// the bus's delivery discipline, so each surviving frame is exactly one
// protocol action.
func (m *Membership) drainBus() {
	for {
		f, ok := m.bus.Recv(0)
		if !ok {
			return
		}
		if f.Kind != JoinAnnounce {
			continue // grants/commits are driver→candidate; nothing to track here
		}
		m.mu.Lock()
		attempt := 0
		if len(f.Payload) > 0 {
			attempt = f.Payload[0]
		}
		now := m.now()
		t := &JoinTicket{
			Host: f.Sender, Ranks: f.Ranks, Attempt: attempt, Seq: f.Seq,
			AnnouncedAt: now, Deadline: now.Add(m.joinTTL),
			admitted: make(chan struct{}),
		}
		t.state = JoinAnnounced
		m.pending = append(m.pending, t)
		m.count("elastic.joins.announced", 1)
		m.event("announce", fmt.Sprintf("%s offers %d rank(s), attempt %d", f.Sender, f.Ranks, attempt))
		m.mu.Unlock()
	}
}

// expireStale walks announced tickets past their TTL into JoinExpired;
// caller holds the lock.
func (m *Membership) expireStale() {
	now := m.now()
	kept := m.pending[:0]
	for _, t := range m.pending {
		if t.State() == JoinAnnounced && now.After(t.Deadline) {
			t.setState(JoinExpired)
			m.count("elastic.joins.expired", 1)
			m.event("expire", fmt.Sprintf("%s (%d rank(s)) waited past TTL", t.Host, t.Ranks))
			continue
		}
		kept = append(kept, t)
	}
	for i := len(kept); i < len(m.pending); i++ {
		m.pending[i] = nil
	}
	m.pending = kept
}

// PendingJoins returns how many candidates are announced and unexpired.
func (m *Membership) PendingJoins() int {
	m.drainBus()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireStale()
	n := 0
	for _, t := range m.pending {
		if t.State() == JoinAnnounced {
			n++
		}
	}
	return n
}

// PendingRanks returns the total ranks offered by announced candidates.
func (m *Membership) PendingRanks() int {
	m.drainBus()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireStale()
	n := 0
	for _, t := range m.pending {
		if t.State() == JoinAnnounced {
			n += t.Ranks
		}
	}
	return n
}

// BeginRebalance moves every announced candidate into the checkpoint
// handshake and marks the pool rebalancing (readiness flips to 503). It
// returns false when no unexpired candidate is pending.
func (m *Membership) BeginRebalance() bool {
	m.drainBus()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireStale()
	any := false
	for _, t := range m.pending {
		if t.State() == JoinAnnounced {
			t.setState(JoinHandshake)
			any = true
		}
	}
	if any {
		m.rebalancing = true
		m.gauge("elastic.rebalance_inflight", 1)
		m.event("handshake", "checkpoint handshake started")
	}
	return any
}

// CommitJoins admits every candidate in handshake: each receives the
// checkpoint (the CRC-verified bytes the restarted epoch also warm-
// starts from), the pool grows by their offered ranks, and the epoch
// increments. Returns the number of ranks added.
func (m *Membership) CommitJoins(checkpoint []byte) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	added := 0
	kept := m.pending[:0]
	for _, t := range m.pending {
		if t.State() != JoinHandshake {
			kept = append(kept, t)
			continue
		}
		t.mu.Lock()
		t.state = JoinCommitted
		t.checkpoint = checkpoint
		close(t.admitted)
		t.mu.Unlock()
		added += t.Ranks
		m.count("elastic.joins.committed", 1)
	}
	for i := len(kept); i < len(m.pending); i++ {
		m.pending[i] = nil
	}
	m.pending = kept
	if added > 0 {
		m.size += added
		m.epoch++
		m.event("commit", fmt.Sprintf("%d rank(s) admitted", added))
		m.event("grow", fmt.Sprintf("pool %d -> %d", m.size-added, m.size))
	}
	m.rebalancing = false
	m.gauge("elastic.rebalance_inflight", 0)
	m.gauge("elastic.pool_size", float64(m.size))
	m.gauge("elastic.pool_epoch", float64(m.epoch))
	return added
}

// AbortRebalance abandons an in-flight handshake (the epoch ended for a
// different reason, e.g. a rank death won the race): handshake tickets
// become aborted and the candidates re-announce with backoff.
func (m *Membership) AbortRebalance(reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	kept := m.pending[:0]
	for _, t := range m.pending {
		if t.State() == JoinHandshake {
			t.setState(JoinAborted)
			m.event("abort", fmt.Sprintf("%s: %s", t.Host, reason))
			continue
		}
		kept = append(kept, t)
	}
	for i := len(kept); i < len(m.pending); i++ {
		m.pending[i] = nil
	}
	m.pending = kept
	m.rebalancing = false
	m.gauge("elastic.rebalance_inflight", 0)
}

// Shrink removes dead ranks from the pool (floor 1) and advances the
// epoch — the membership-side record of a shrink-restart.
func (m *Membership) Shrink(dead int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if dead < 1 {
		return m.size
	}
	from := m.size
	m.size -= dead
	if m.size < 1 {
		m.size = 1
	}
	m.epoch++
	m.event("shrink", fmt.Sprintf("pool %d -> %d (%d dead)", from, m.size, dead))
	m.gauge("elastic.pool_size", float64(m.size))
	m.gauge("elastic.pool_epoch", float64(m.epoch))
	return m.size
}

// RecordMigration re-hosts straggler-flagged ranks: the pool size is
// unchanged but the placement is new, so the epoch advances (stale
// straggler windows keyed by the old epoch are never read again).
func (m *Membership) RecordMigration(ranks []int) {
	if len(ranks) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epoch++
	m.count("elastic.migrations", int64(len(ranks)))
	m.event("migrate", fmt.Sprintf("re-hosted rank(s) %v", ranks))
	m.gauge("elastic.pool_epoch", float64(m.epoch))
}
