package mpi

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func sendAnnounce(b *JoinBus, sender string, ranks int) int64 {
	return b.Send(JoinFrame{Kind: JoinAnnounce, Sender: sender, Ranks: ranks})
}

func TestJoinBusOrderedDelivery(t *testing.T) {
	b := NewJoinBus(nil)
	for i := 1; i <= 5; i++ {
		seq := sendAnnounce(b, "host-a", i)
		if seq != int64(i) {
			t.Fatalf("send %d: assigned seq %d", i, seq)
		}
	}
	for i := 1; i <= 5; i++ {
		f, ok := b.Recv(time.Second)
		if !ok {
			t.Fatalf("recv %d: timeout", i)
		}
		if f.Seq != int64(i) || f.Ranks != i {
			t.Fatalf("recv %d: got seq %d ranks %d", i, f.Seq, f.Ranks)
		}
	}
	if _, ok := b.Recv(0); ok {
		t.Fatal("drained bus delivered an extra frame")
	}
}

func TestJoinBusDuplicateDropped(t *testing.T) {
	tel := telemetry.NewSession()
	b := NewJoinBus(tel)
	b.duplicateNext = true
	sendAnnounce(b, "host-a", 2)
	sendAnnounce(b, "host-a", 3)

	f1, ok := b.Recv(time.Second)
	if !ok || f1.Seq != 1 {
		t.Fatalf("first delivery: ok=%v seq=%d", ok, f1.Seq)
	}
	f2, ok := b.Recv(time.Second)
	if !ok || f2.Seq != 2 || f2.Ranks != 3 {
		t.Fatalf("second delivery: ok=%v seq=%d ranks=%d (duplicate not dropped?)", ok, f2.Seq, f2.Ranks)
	}
	if _, ok := b.Recv(0); ok {
		t.Fatal("duplicate survived dedup")
	}
	if n := tel.Counter("elastic.join.dup_dropped").Value(); n != 1 {
		t.Fatalf("dup_dropped = %d, want 1", n)
	}
}

func TestJoinBusCorruptRecovered(t *testing.T) {
	tel := telemetry.NewSession()
	b := NewJoinBus(tel)
	b.corruptNext = true
	sendAnnounce(b, "host-a", 2)

	f, ok := b.Recv(time.Second)
	if !ok {
		t.Fatal("recv timeout")
	}
	if f.Ranks != 2 {
		t.Fatalf("corrupted frame delivered: ranks = %d, want 2 (restored)", f.Ranks)
	}
	if f.checksum() != f.sum {
		t.Fatal("restored frame fails its own checksum")
	}
	if n := tel.Counter("elastic.join.retransmits").Value(); n != 1 {
		t.Fatalf("retransmits = %d, want 1", n)
	}
}

func TestJoinBusReorderRestored(t *testing.T) {
	b := NewJoinBus(nil)
	sendAnnounce(b, "host-a", 1)
	b.reorderNext = true
	sendAnnounce(b, "host-a", 2) // held back and delivered behind seq 3
	sendAnnounce(b, "host-a", 3)

	var got []int64
	for i := 0; i < 3; i++ {
		f, ok := b.Recv(time.Second)
		if !ok {
			t.Fatalf("recv %d: timeout", i)
		}
		got = append(got, f.Seq)
	}
	for i, seq := range got {
		if seq != int64(i+1) {
			t.Fatalf("delivery order %v: per-sender seq order not restored", got)
		}
	}
}

func TestJoinBusInterleavedSenders(t *testing.T) {
	b := NewJoinBus(nil)
	sendAnnounce(b, "a", 1)
	sendAnnounce(b, "b", 1)
	sendAnnounce(b, "a", 2)
	next := map[string]int64{"a": 1, "b": 1}
	for i := 0; i < 3; i++ {
		f, ok := b.Recv(time.Second)
		if !ok {
			t.Fatalf("recv %d: timeout", i)
		}
		if f.Seq != next[f.Sender] {
			t.Fatalf("sender %s delivered seq %d, want %d", f.Sender, f.Seq, next[f.Sender])
		}
		next[f.Sender]++
	}
}

func TestJoinBusConcurrent(t *testing.T) {
	b := NewJoinBus(nil)
	const senders, frames = 4, 25
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				sendAnnounce(b, fmt.Sprintf("host-%d", s), i)
			}
		}(s)
	}
	seen := make(map[string]int64)
	for i := 0; i < senders*frames; i++ {
		f, ok := b.Recv(2 * time.Second)
		if !ok {
			t.Fatalf("recv %d: timeout (%d delivered)", i, len(seen))
		}
		if f.Seq != seen[f.Sender]+1 {
			t.Fatalf("sender %s: seq %d after %d", f.Sender, f.Seq, seen[f.Sender])
		}
		seen[f.Sender] = f.Seq
	}
	wg.Wait()
	if _, ok := b.Recv(0); ok {
		t.Fatal("extra frame after full drain")
	}
}

func TestJoinBackoffJitterBounds(t *testing.T) {
	for attempt := 0; attempt < 10; attempt++ {
		window := 50 * time.Millisecond << uint(attempt)
		if window > 2*time.Second {
			window = 2 * time.Second
		}
		for _, host := range []string{"a", "b", "node-17"} {
			d := JoinBackoff(host, attempt)
			if d < 0 || d >= window {
				t.Fatalf("JoinBackoff(%q, %d) = %v outside [0, %v)", host, attempt, d, window)
			}
			if d != JoinBackoff(host, attempt) {
				t.Fatalf("JoinBackoff(%q, %d) not deterministic", host, attempt)
			}
		}
	}
	// Different hosts should not back off in lockstep on every attempt.
	same := 0
	for attempt := 0; attempt < 8; attempt++ {
		if JoinBackoff("host-a", attempt) == JoinBackoff("host-b", attempt) {
			same++
		}
	}
	if same == 8 {
		t.Fatal("backoff identical across hosts for every attempt: no jitter")
	}
}
