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
	if n := m.PendingJoins(); n != 1 {
		t.Fatalf("pending joins = %d, want 1", n)
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
	got, err := ticket.AwaitAdmission(time.Second)
	if err != nil {
		t.Fatalf("AwaitAdmission: %v", err)
	}
	if !bytes.Equal(got, ckpt) {
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
	if n := m.PendingJoins(); n != 0 {
		t.Fatalf("pending joins after TTL = %d, want 0", n)
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

	m.joinTTL = time.Minute
	retry, backoff := m.ReAnnounce(ticket)
	if retry.Attempt != 1 {
		t.Fatalf("re-announce attempt = %d, want 1", retry.Attempt)
	}
	if want := JoinBackoff("slowpoke", 1); backoff != want {
		t.Fatalf("backoff = %v, want deterministic %v", backoff, want)
	}
	if !m.BeginRebalance() {
		t.Fatal("re-announced candidate not picked up")
	}
	if added := m.CommitJoins(nil); added != 1 {
		t.Fatalf("re-announced candidate: added = %d, want 1", added)
	}
}

func TestMembershipAbortRebalance(t *testing.T) {
	m := NewMembership(2, nil)
	ticket := m.Announce(2, "joiner")
	if !m.BeginRebalance() {
		t.Fatal("BeginRebalance failed")
	}
	m.AbortRebalance("rank death won the race")
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

func TestMembershipBusChaosHealedBeforeAdmission(t *testing.T) {
	tel := telemetry.NewSession()
	m := NewMembership(2, tel)

	// One duplicated and one corrupted announce: the bus discipline must
	// heal both so exactly two candidates (not three) reach the handshake.
	m.bus.duplicateNext = true
	m.Announce(1, "dup-host")
	m.bus.corruptNext = true
	m.Announce(1, "corrupt-host")

	if n := m.PendingJoins(); n != 2 {
		t.Fatalf("pending joins = %d, want 2 (chaos not healed)", n)
	}
	if !m.BeginRebalance() {
		t.Fatal("BeginRebalance failed")
	}
	if added := m.CommitJoins(nil); added != 2 {
		t.Fatalf("added = %d ranks, want 2", added)
	}
	if n := tel.Counter("elastic.join.dup_dropped").Value(); n != 1 {
		t.Fatalf("dup_dropped = %d, want 1", n)
	}
	if n := tel.Counter("elastic.join.retransmits").Value(); n != 1 {
		t.Fatalf("retransmits = %d, want 1", n)
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
	if n := m.PendingJoins(); n != candidates {
		t.Fatalf("pending joins = %d, want %d", n, candidates)
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
