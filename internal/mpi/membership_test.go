package mpi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestMembershipJoinLifecycle(t *testing.T) {
	tel := telemetry.NewSession()
	m := NewMembership(2, tel)

	ticket := m.Announce(1, "joiner-a")
	if ticket.State() != JoinAnnounced {
		t.Fatalf("after announce: state = %v", ticket.State())
	}
	if n := m.PendingRanks(); n != 1 {
		t.Fatalf("pending ranks = %d, want 1", n)
	}

	if !m.BeginRebalance() {
		t.Fatal("BeginRebalance returned false with a pending candidate")
	}
	if ticket.State() != JoinHandshake {
		t.Fatalf("after begin: state = %v", ticket.State())
	}
	if !m.Rebalancing() {
		t.Fatal("not rebalancing during the handshake")
	}

	ckpt := []byte("HFCKPT v1 stand-in")
	if added := m.CommitJoins(ckpt); added != 1 {
		t.Fatalf("CommitJoins added %d ranks, want 1", added)
	}
	if ticket.State() != JoinCommitted {
		t.Fatalf("after commit: state = %v", ticket.State())
	}
	if got := ticket.Checkpoint(); !bytes.Equal(got, ckpt) {
		t.Fatalf("checkpoint handed to joiner differs: %q", got)
	}
	if m.Size() != 3 || m.Epoch() != 1 {
		t.Fatalf("after commit: size=%d epoch=%d, want 3/1", m.Size(), m.Epoch())
	}
	if m.Rebalancing() {
		t.Fatal("still rebalancing after commit")
	}
	if n := tel.Counter("elastic.joins.committed").Value(); n != 1 {
		t.Fatalf("joins.committed = %d, want 1", n)
	}
}

func TestMembershipTTLExpiryAndReAnnounce(t *testing.T) {
	tel := telemetry.NewSession()
	m := NewMembership(2, tel)
	m.joinTTL = time.Millisecond

	ticket := m.Announce(1, "slowpoke")
	time.Sleep(5 * time.Millisecond)
	if n := m.PendingRanks(); n != 0 {
		t.Fatalf("pending ranks after TTL = %d, want 0", n)
	}
	if ticket.State() != JoinExpired {
		t.Fatalf("state after TTL = %v, want expired", ticket.State())
	}
	if n := tel.Counter("elastic.joins.expired").Value(); n != 1 {
		t.Fatalf("joins.expired = %d, want 1", n)
	}
	// An expired candidate must not be admitted by a later commit.
	if m.BeginRebalance() {
		t.Fatal("BeginRebalance admitted an expired candidate")
	}

	// The candidate retries with a plain Announce: a fresh ticket with a
	// fresh TTL, admitted by the next handshake; the expired one stays
	// expired and is handed nothing.
	m.joinTTL = time.Minute
	retry := m.Announce(1, "slowpoke")
	if retry == ticket || retry.State() != JoinAnnounced {
		t.Fatalf("re-announce: fresh ticket %v in state %v, want a new announced ticket",
			retry != ticket, retry.State())
	}
	if !m.BeginRebalance() {
		t.Fatal("re-announced candidate not picked up")
	}
	if added := m.CommitJoins([]byte("ckpt")); added != 1 {
		t.Fatalf("re-announced candidate: added = %d, want 1", added)
	}
	if retry.State() != JoinCommitted || ticket.State() != JoinExpired || ticket.Checkpoint() != nil {
		t.Fatalf("after commit: retry %v, expired ticket %v with %d checkpoint bytes",
			retry.State(), ticket.State(), len(ticket.Checkpoint()))
	}
	if n := tel.Counter("elastic.joins.announced").Value(); n != 2 {
		t.Fatalf("joins.announced = %d, want 2", n)
	}
}

// TestMembershipAnnounceDuringHandshake: a candidate that announces after
// BeginRebalance is not part of that handshake — it stays announced
// through the CommitJoins and is not handed that checkpoint; the next
// handshake admits it.
func TestMembershipAnnounceDuringHandshake(t *testing.T) {
	m := NewMembership(2, nil)
	first := m.Announce(1, "early")
	if !m.BeginRebalance() {
		t.Fatal("BeginRebalance failed")
	}
	late := m.Announce(2, "late")
	if added := m.CommitJoins([]byte("epoch-0 checkpoint")); added != 1 {
		t.Fatalf("first commit added %d ranks, want 1 (the late candidate is not in the handshake)", added)
	}
	if first.State() != JoinCommitted {
		t.Fatalf("early candidate after first commit: %v", first.State())
	}
	if late.State() != JoinAnnounced || late.Checkpoint() != nil {
		t.Fatalf("late candidate after first commit: state %v, %d checkpoint bytes; want announced, none",
			late.State(), len(late.Checkpoint()))
	}
	if n := m.PendingRanks(); n != 2 {
		t.Fatalf("pending ranks = %d, want 2 (the late candidate)", n)
	}
	if m.Size() != 3 || m.Epoch() != 1 {
		t.Fatalf("after first commit: size=%d epoch=%d, want 3/1", m.Size(), m.Epoch())
	}

	if !m.BeginRebalance() {
		t.Fatal("second BeginRebalance did not pick up the late candidate")
	}
	ckpt := []byte("epoch-1 checkpoint")
	if added := m.CommitJoins(ckpt); added != 2 {
		t.Fatalf("second commit added %d ranks, want 2", added)
	}
	if late.State() != JoinCommitted || !bytes.Equal(late.Checkpoint(), ckpt) {
		t.Fatalf("late candidate after second commit: state %v, checkpoint %q", late.State(), late.Checkpoint())
	}
	if m.Size() != 5 || m.Epoch() != 2 {
		t.Fatalf("after second commit: size=%d epoch=%d, want 5/2", m.Size(), m.Epoch())
	}
}

func TestMembershipAbortRebalance(t *testing.T) {
	m := NewMembership(2, nil)
	ticket := m.Announce(2, "joiner")
	if !m.BeginRebalance() {
		t.Fatal("BeginRebalance failed")
	}
	m.AbortRebalance()
	if ticket.State() != JoinAborted {
		t.Fatalf("state after abort = %v", ticket.State())
	}
	if m.Rebalancing() {
		t.Fatal("still rebalancing after abort")
	}
	if m.Size() != 2 || m.Epoch() != 0 {
		t.Fatalf("abort changed the pool: size=%d epoch=%d", m.Size(), m.Epoch())
	}
	// Commit after abort must admit nobody.
	if added := m.CommitJoins(nil); added != 0 {
		t.Fatalf("commit after abort added %d ranks", added)
	}
}

func TestMembershipShrinkFloor(t *testing.T) {
	m := NewMembership(3, nil)
	if size := m.Shrink(1); size != 2 || m.Epoch() != 1 {
		t.Fatalf("shrink 1: size=%d epoch=%d, want 2/1", size, m.Epoch())
	}
	if size := m.Shrink(10); size != 1 || m.Epoch() != 2 {
		t.Fatalf("shrink 10: size=%d epoch=%d, want floor 1 / epoch 2", size, m.Epoch())
	}
	if size := m.Shrink(0); size != 1 || m.Epoch() != 2 {
		t.Fatalf("shrink 0 must be a no-op: size=%d epoch=%d", size, m.Epoch())
	}
}

func TestMembershipMigrationAdvancesEpoch(t *testing.T) {
	tel := telemetry.NewSession()
	m := NewMembership(4, tel)
	m.RecordMigration([]int{1, 3})
	if m.Size() != 4 {
		t.Fatalf("migration changed pool size: %d", m.Size())
	}
	if m.Epoch() != 1 {
		t.Fatalf("migration epoch = %d, want 1", m.Epoch())
	}
	if n := tel.Counter("elastic.migrations").Value(); n != 2 {
		t.Fatalf("elastic.migrations = %d, want 2 (one per re-hosted rank)", n)
	}
	m.RecordMigration(nil)
	if m.Epoch() != 1 {
		t.Fatal("empty migration advanced the epoch")
	}
}

func TestMembershipConcurrentAnnounce(t *testing.T) {
	m := NewMembership(1, nil)
	const candidates = 8
	var wg sync.WaitGroup
	for i := 0; i < candidates; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.Announce(1, fmt.Sprintf("host-%d", i))
		}(i)
	}
	wg.Wait()
	if n := m.PendingRanks(); n != candidates {
		t.Fatalf("pending ranks = %d, want %d", n, candidates)
	}
	if !m.BeginRebalance() {
		t.Fatal("BeginRebalance failed")
	}
	if added := m.CommitJoins(nil); added != candidates {
		t.Fatalf("added = %d, want %d", added, candidates)
	}
	if m.Size() != 1+candidates || m.Epoch() != 1 {
		t.Fatalf("size=%d epoch=%d, want %d/1", m.Size(), m.Epoch(), 1+candidates)
	}
}
