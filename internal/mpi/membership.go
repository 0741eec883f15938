package mpi

// Elastic membership: the bookkeeping half of the elastic runtime. A
// Membership tracks the current rank-pool size and its epoch (a counter
// that increments on every size or placement change), and runs the join
// protocol for candidates that want to enter a running computation:
//
//	announce  — the candidate enters the pending set (Announce) and waits
//	            for admission with a TTL;
//	handshake — the driver, at an SCF iteration boundary, moves every
//	            announced candidate into the checkpoint handshake
//	            (BeginRebalance) and stops the running epoch;
//	commit    — the driver hands the last CRC-verified checkpoint to the
//	            admitted candidates (CommitJoins), the pool grows, and
//	            the epoch increments — the restarted computation includes
//	            the new ranks from its first iteration;
//	expire    — a candidate not admitted within the TTL expires; one
//	            whose handshake the driver abandons (AbortRebalance) is
//	            aborted. Either may Announce again.
//
// Candidates and the driver share one process, so an announce is a
// locked append, not a message: there is no control channel to lose,
// duplicate or reorder it.
//
// Shrink (rank death) and migration (straggler re-host, same size but
// new placement) also advance the epoch. Each epoch runs in a fresh
// world, so per-world state — straggler windows, lease cycles — starts
// fresh with it and no stale world's data is ever read.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// JoinState is a join ticket's position in the protocol state machine.
type JoinState int

const (
	// JoinAnnounced: pending, waiting for the driver to reach an
	// iteration boundary.
	JoinAnnounced JoinState = iota
	// JoinHandshake: the driver is stopping the running epoch to admit
	// this candidate (checkpoint handshake in flight).
	JoinHandshake
	// JoinCommitted: admitted; the ticket carries the checkpoint.
	JoinCommitted
	// JoinExpired: the TTL lapsed before admission; the candidate may
	// announce again.
	JoinExpired
	// JoinAborted: the driver abandoned the handshake (e.g. the epoch
	// died for a different reason); the candidate may announce again.
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
	Host     string
	Ranks    int
	Deadline time.Time

	mu         sync.Mutex
	state      JoinState
	checkpoint []byte
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

// DefaultJoinTTL bounds how long an announced candidate waits for the
// driver to reach an iteration boundary before it expires.
const DefaultJoinTTL = 30 * time.Second

// Membership is the elastic rank pool of one computation. Concurrency-safe.
type Membership struct {
	mu          sync.Mutex
	size        int
	epoch       int64
	joinTTL     time.Duration
	pending     []*JoinTicket
	tel         *telemetry.Session
	rebalancing bool
}

// NewMembership returns a pool of the given initial size (min 1). tel
// (optional) receives the elastic.* counters and gauges.
func NewMembership(size int, tel *telemetry.Session) *Membership {
	if size < 1 {
		size = 1
	}
	m := &Membership{size: size, joinTTL: DefaultJoinTTL, tel: tel}
	m.gauge("elastic.pool_size", float64(size))
	m.gauge("elastic.pool_epoch", 0)
	m.gauge("elastic.rebalance_inflight", 0)
	return m
}

func (m *Membership) count(name string, n int64) { m.tel.Counter(name).Add(n) }

func (m *Membership) gauge(name string, v float64) { m.tel.Gauge(name).Set(v) }

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

// Rebalancing reports whether a join/rebalance handshake is in flight.
func (m *Membership) Rebalancing() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rebalancing
}

// Announce enters a candidate offering ranks (min 1) into the pending set
// and returns its ticket, which expires unadmitted after the join TTL. An
// expired or aborted candidate retries with another Announce.
func (m *Membership) Announce(ranks int, host string) *JoinTicket {
	if ranks < 1 {
		ranks = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &JoinTicket{Host: host, Ranks: ranks, Deadline: time.Now().Add(m.joinTTL)}
	m.pending = append(m.pending, t)
	m.count("elastic.joins.announced", 1)
	return t
}

// expireStale walks announced tickets past their TTL into JoinExpired;
// caller holds the lock.
func (m *Membership) expireStale() {
	now := time.Now()
	kept := m.pending[:0]
	for _, t := range m.pending {
		if t.State() == JoinAnnounced && now.After(t.Deadline) {
			t.setState(JoinExpired)
			m.count("elastic.joins.expired", 1)
			continue
		}
		kept = append(kept, t)
	}
	for i := len(kept); i < len(m.pending); i++ {
		m.pending[i] = nil
	}
	m.pending = kept
}

// PendingRanks returns the total ranks offered by announced candidates.
func (m *Membership) PendingRanks() int {
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
// handshake and marks the pool rebalancing. It returns false when no
// unexpired candidate is pending.
func (m *Membership) BeginRebalance() bool {
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
	}
	m.rebalancing = false
	m.gauge("elastic.rebalance_inflight", 0)
	m.gauge("elastic.pool_size", float64(m.size))
	m.gauge("elastic.pool_epoch", float64(m.epoch))
	return added
}

// AbortRebalance abandons an in-flight handshake (the epoch ended for a
// different reason, e.g. a rank death won the race): handshake tickets
// become aborted and the candidates may announce again.
func (m *Membership) AbortRebalance() {
	m.mu.Lock()
	defer m.mu.Unlock()
	kept := m.pending[:0]
	for _, t := range m.pending {
		if t.State() == JoinHandshake {
			t.setState(JoinAborted)
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
	m.size -= dead
	if m.size < 1 {
		m.size = 1
	}
	m.epoch++
	m.gauge("elastic.pool_size", float64(m.size))
	m.gauge("elastic.pool_epoch", float64(m.epoch))
	return m.size
}

// RecordMigration re-hosts straggler-flagged ranks: the pool size is
// unchanged but the placement is new, so the epoch advances (and the
// next epoch's fresh world starts with fresh straggler windows).
func (m *Membership) RecordMigration(ranks []int) {
	if len(ranks) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epoch++
	m.count("elastic.migrations", int64(len(ranks)))
	m.gauge("elastic.pool_epoch", float64(m.epoch))
}
