package mpi

// Membership join framing: the out-of-band control channel a candidate
// rank uses to announce itself to a running computation. Frames ride the
// same delivery discipline as the data transport (comm.go): every frame
// carries a per-sender sequence number and a Fletcher-64 checksum over
// its entire envelope, the receiver delivers strictly in per-sender seq
// order, drops stale duplicates, holds early arrivals until the gap
// fills, and recovers a corrupted frame from the sender's retained clean
// copy (the in-process stand-in for a bounded retransmit). A membership
// message that could be duplicated, reordered, or silently corrupted
// would let one flaky fabric event double-admit a rank or commit a
// half-announced join — so the control plane inherits exactly the
// guarantees the data plane already earns. membership.go is the other
// half of the protocol: the rank pool that turns delivered announces into
// admitted ranks.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/integrity"
	"repro/internal/telemetry"
)

// JoinKind enumerates membership-protocol frame types.
type JoinKind int

const (
	// JoinAnnounce is a candidate offering ranks to the computation.
	JoinAnnounce JoinKind = iota
	// JoinGrant moves an announced candidate into the checkpoint
	// handshake (driver → candidate).
	JoinGrant
	// JoinCommit admits the candidate at the next epoch boundary.
	JoinCommit
	// JoinAbort cancels an in-flight handshake.
	JoinAbort
	// JoinLeave is a voluntary departure (drain) announcement.
	JoinLeave
)

func (k JoinKind) String() string {
	switch k {
	case JoinAnnounce:
		return "announce"
	case JoinGrant:
		return "grant"
	case JoinCommit:
		return "commit"
	case JoinAbort:
		return "abort"
	case JoinLeave:
		return "leave"
	}
	return fmt.Sprintf("JoinKind(%d)", int(k))
}

// JoinFrame is one membership-protocol message. Seq is assigned by
// Send (per-sender, monotonically increasing from 1); the checksum
// covers every envelope field including the sender identity.
type JoinFrame struct {
	Kind    JoinKind
	Sender  string // candidate host / driver identity
	Seq     int64
	Epoch   int64 // membership epoch the sender observed
	Ranks   int   // ranks offered (announce) or granted (commit)
	Payload []int // kind-specific extras (e.g. migrated rank ids)
	sum     uint64
}

// envelope flattens every checksummed field into one int slice.
func (f *JoinFrame) envelope() []int {
	ints := make([]int, 0, 5+len(f.Sender)+len(f.Payload))
	ints = append(ints, int(f.Kind), int(f.Seq), int(f.Epoch), f.Ranks, len(f.Payload))
	for _, b := range []byte(f.Sender) {
		ints = append(ints, int(b))
	}
	ints = append(ints, f.Payload...)
	return ints
}

func (f *JoinFrame) checksum() uint64 {
	return integrity.ChecksumPayload(nil, f.envelope())
}

// clone deep-copies the frame (the retained clean copy must not alias
// the in-flight payload slice a fault knob may corrupt).
func (f JoinFrame) clone() JoinFrame {
	if f.Payload != nil {
		f.Payload = append([]int(nil), f.Payload...)
	}
	return f
}

// JoinBus is the membership control channel. One bus serves a whole
// membership domain: candidates Send announce frames, the driver Recvs
// them (and may Send grants/commits back). Concurrency-safe.
type JoinBus struct {
	mu        sync.Mutex
	cond      *sync.Cond
	queue     []JoinFrame
	sendSeq   map[string]int64
	delivered map[string]int64
	clean     map[string]JoinFrame // clean copies pending delivery, keyed sender#seq
	tel       *telemetry.Session

	// Fault knobs, set by tests: each applies to the next Send only,
	// modeling one fabric event on the control channel. corruptNext flips a
	// bit in the envelope (the receiver must recover the clean copy),
	// duplicateNext delivers the frame twice (the stale copy must be
	// dropped), reorderNext swaps it behind the frame queued ahead of it
	// (per-sender seq order must be restored).
	corruptNext   bool
	duplicateNext bool
	reorderNext   bool
}

// NewJoinBus returns an empty bus. tel (optional) receives the
// elastic.join.* delivery counters.
func NewJoinBus(tel *telemetry.Session) *JoinBus {
	b := &JoinBus{
		sendSeq:   make(map[string]int64),
		delivered: make(map[string]int64),
		clean:     make(map[string]JoinFrame),
		tel:       tel,
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *JoinBus) count(name string) {
	if b.tel != nil {
		b.tel.Counter(name).Add(1)
	}
}

// Send assigns the frame its per-sender sequence number and checksum,
// retains a clean copy, applies any pending fault knob, and enqueues it.
// It returns the assigned sequence number.
func (b *JoinBus) Send(f JoinFrame) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sendSeq[f.Sender]++
	f.Seq = b.sendSeq[f.Sender]
	f.sum = f.checksum()
	b.clean[frameKey(f.Sender, f.Seq)] = f.clone()

	inFlight := f.clone()
	if b.corruptNext {
		b.corruptNext = false
		inFlight.Ranks ^= 1 << 6 // one flipped bit in the envelope
	}
	b.queue = append(b.queue, inFlight)
	if b.duplicateNext {
		b.duplicateNext = false
		b.queue = append(b.queue, inFlight.clone())
	}
	if b.reorderNext && len(b.queue) >= 2 {
		b.reorderNext = false
		n := len(b.queue)
		b.queue[n-1], b.queue[n-2] = b.queue[n-2], b.queue[n-1]
	}
	b.cond.Broadcast()
	return f.Seq
}

func frameKey(sender string, seq int64) string {
	return fmt.Sprintf("%s#%d", sender, seq)
}

// Recv delivers the next in-order frame from any sender, waiting up to
// timeout (0 = non-blocking). Stale duplicates are dropped, early
// arrivals are held until their gap fills, and a corrupted frame is
// restored from the sender's clean copy. Returns false on timeout.
func (b *JoinBus) Recv(timeout time.Duration) (JoinFrame, bool) {
	deadline := time.Now().Add(timeout)
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if f, ok := b.takeDeliverable(); ok {
			return f, true
		}
		remaining := time.Until(deadline)
		if timeout <= 0 || remaining <= 0 {
			return JoinFrame{}, false
		}
		// Timed wait: a timer broadcast bounds the sleep so a quiet bus
		// cannot block the caller past its deadline.
		t := time.AfterFunc(remaining, func() {
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		})
		b.cond.Wait()
		t.Stop()
	}
}

// takeDeliverable scans the queue (caller holds the lock): stale
// duplicates are purged as encountered, and the first frame whose seq is
// exactly next-in-order for its sender is verified, removed, and
// returned. Frames ahead of a gap stay queued.
func (b *JoinBus) takeDeliverable() (JoinFrame, bool) {
	kept := b.queue[:0]
	var out JoinFrame
	found := false
	for i, f := range b.queue {
		if found {
			kept = append(kept, b.queue[i:]...)
			break
		}
		next := b.delivered[f.Sender] + 1
		switch {
		case f.Seq < next:
			// Stale duplicate: already delivered — drop.
			b.count("elastic.join.dup_dropped")
		case f.Seq > next:
			// Early arrival: hold for the gap to fill.
			kept = append(kept, f)
		default:
			if f.checksum() != f.sum {
				// In-flight corruption: restore from the clean copy, the
				// stand-in for asking the sender to retransmit.
				f = b.clean[frameKey(f.Sender, f.Seq)]
				b.count("elastic.join.retransmits")
			}
			b.delivered[f.Sender] = f.Seq
			delete(b.clean, frameKey(f.Sender, f.Seq))
			out, found = f, true
		}
	}
	// Zero the tail so dropped frames do not pin their payloads.
	for i := len(kept); i < len(b.queue); i++ {
		b.queue[i] = JoinFrame{}
	}
	b.queue = kept
	return out, found
}

// Pending returns how many frames are queued (including held early
// arrivals and not-yet-dropped duplicates).
func (b *JoinBus) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// JoinBackoff returns the full-jitter re-announce backoff for a
// candidate's attempt (0-based): uniform in [0, 50ms·2^attempt), capped
// at a 2s window. Same discipline as the transport's retransmit backoff
// (retryBackoff in comm.go): deterministic per (host, attempt) so runs
// reproduce, jittered across hosts so expired candidates do not
// re-announce in synchronized waves.
func JoinBackoff(host string, attempt int) time.Duration {
	const (
		base = 50 * time.Millisecond
		cap  = 2 * time.Second
	)
	window := base << uint(attempt)
	if window > cap {
		window = cap
	}
	seed := uint64(attempt) << 48
	for _, c := range []byte(host) {
		seed = seed<<7 ^ seed>>57 ^ uint64(c)
	}
	return time.Duration(splitmix64(seed) % uint64(window))
}
