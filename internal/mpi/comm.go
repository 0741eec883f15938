// Package mpi is an in-process message-passing runtime with MPI-like
// semantics: a fixed set of ranks executing the same function as
// goroutines, tagged point-to-point sends and receives with wildcard
// matching, tree-based collectives, and shared windows supporting the
// one-sided fetch-and-add that the GAMESS DDI dynamic load balancer needs.
//
// It substitutes for the Intel MPI + DDI stack of the paper: the Fock
// build algorithms only require send/recv ordering guarantees, barriers,
// global sums, and an atomic global counter — all of which behave here
// exactly as on a real cluster, with real concurrency, so the algorithms'
// synchronization logic is genuinely exercised.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/integrity"
	"repro/internal/telemetry"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -2
)

// internalTagBase separates collective traffic from user tags; user tags
// must be small non-negative integers.
const internalTagBase = 1 << 24

// message is one point-to-point payload in flight. Every message is
// framed with a Fletcher-64 checksum of its clean payload (sum); the
// receiver verifies it after matching and, on mismatch, "retransmits"
// from the sender-side retransmit buffer (origin — retained only when an
// injected corruption actually fired, since that is the only way a
// payload can differ from its checksum in-process). corrupt/
// corruptLeft let a Corrupt{Repeat: n} schedule re-corrupt n
// retransmissions, driving the bounded retry to exhaustion.
type message struct {
	source int
	tag    int
	data   []float64

	// seq is the per-(source, dest, tag) channel sequence number, assigned
	// only when the run's fault plan includes message chaos (duplication,
	// reordering, partitions). 0 means "no sequencing": the production hot
	// path never pays for chaos bookkeeping. Under chaos the receiver
	// delivers each channel strictly in seq order and drops duplicates, so
	// delivery is invariant under any duplication/reordering schedule.
	seq int64

	sum         uint64    // checksum of the clean payload (verified transport)
	origin      []float64 // clean retransmit copy, set only when corruption fired
	corrupt     *Corrupt  // schedule entry to re-apply on retransmission
	corruptLeft int       // retransmissions still to corrupt
}

// chanKey identifies one ordered p2p channel. MPI guarantees FIFO per
// (source, dest, tag) — NOT per source: receives on different tags may
// legally complete out of send order, so sequencing per source would
// deadlock legitimate programs.
type chanKey struct {
	src, dst, tag int
}

// mailbox is a rank's unordered-arrival, ordered-matching receive queue.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
	// delivered tracks, per incoming channel, the highest seq handed to a
	// receiver — the receiver half of the chaos-mode sequencing protocol.
	// Allocated lazily: nil until the first sequenced message arrives.
	delivered map[chanKey]int64
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) deliver(msg message) {
	m.mu.Lock()
	m.queue = append(m.queue, msg)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// take blocks until a message matching (source, tag) is available and
// removes it. Matching follows MPI ordering: the earliest-queued matching
// message wins. Already-delivered matches are drained even after a peer
// failure; only an empty wait observes poison (unwinding the receiver)
// or the run deadline (converting a silent hang into ErrTimeout).
func (m *mailbox) take(c *Comm, source, tag int) message {
	deadline := c.world.deadline
	var start time.Time
	if deadline > 0 {
		start = time.Now()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i := 0; i < len(m.queue); i++ {
			msg := m.queue[i]
			if msg.seq > 0 {
				// Stale duplicate of an already-delivered message: drop it
				// during ANY scan, whatever (source, tag) this receive asked
				// for — a duplicate on a channel never requested again (a
				// one-shot collective tag) must still drain, not squat in
				// the queue forever.
				ch := chanKey{src: msg.source, dst: c.rank, tag: msg.tag}
				if msg.seq <= m.delivered[ch] {
					m.queue = append(m.queue[:i], m.queue[i+1:]...)
					i--
					c.world.met.dupsDropped.Add(1)
					continue
				}
			}
			if (source != AnySource && msg.source != source) ||
				(tag != AnyTag && msg.tag != tag) {
				continue
			}
			if msg.seq > 0 {
				// Chaos-mode sequencing: deliver each channel in seq order.
				ch := chanKey{src: msg.source, dst: c.rank, tag: msg.tag}
				d := m.delivered[ch]
				if msg.seq > d+1 {
					// A gap: an earlier message of this channel is still in
					// flight (reordered or partition-held). Skip; the watchdog
					// or its eventual delivery re-wakes us.
					continue
				}
				if m.delivered == nil {
					m.delivered = make(map[chanKey]int64)
				}
				m.delivered[ch] = msg.seq
			}
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return msg
		}
		if f := c.world.poisonF.Load(); f != nil {
			panic(failurePanic{f: f})
		}
		if deadline > 0 {
			if el := time.Since(start); el > deadline {
				panic(timeoutPanic{rank: c.rank, site: "recv", elapsed: el})
			}
		}
		m.cond.Wait()
	}
}

// World owns the shared state of one run: mailboxes, barrier, windows,
// the fault schedule and the failure bookkeeping, all keyed by rank.
type World struct {
	size    int
	boxes   []*mailbox
	barrier *cyclicBarrier
	collSeq []atomic.Int64 // per-rank collective sequence numbers

	winMu  sync.Mutex
	wins   map[int]*window // windows a live rank has yet to create, by ordinal (see WinCreate)
	winSeq []int           // per-rank count of windows created

	deadline  time.Duration      // per-blocking-op bound; 0 = wait forever
	grace     time.Duration      // unwind window past deadline before abandoning
	noVerify  bool               // disables payload checksum verification
	fault     *faultState        // injection schedule; nil = none
	telemetry *telemetry.Session // nil = telemetry disabled
	met       metrics            // handles into telemetry, resolved at start

	// Chaos-mode transport state (see FaultPlan.messageChaos):
	// per-channel send sequence counters and reorder-held messages.
	chaosOn  bool
	seqMu    sync.Mutex
	sendSeqs map[chanKey]int64
	heldMu   sync.Mutex
	held     []*heldMsg

	poisonF   atomic.Pointer[RankFailure] // first observed failure
	fenced    []atomic.Bool               // abandoned ranks barred from windows
	failMu    sync.Mutex
	failures  []RankFailure   // primary failures in detection order
	outcomes  []int8          // per-rank outcome states
	rankWall  []time.Duration // per-rank goroutine wall time
	runStart  time.Time       // when the rank goroutines launched
	watchStop chan struct{}   // stops the deadline watchdog
}

// metrics are a world's telemetry handles, resolved once when it starts
// so no send, receive, barrier or collective looks a name up. Without
// telemetry every handle is nil and every update a no-op; the fault-plan
// counters are resolved only for a world with a fault plan, the only
// kind that can fire them.
type metrics struct {
	sendMsgs                      *telemetry.Counter
	sendBytes, recvNs             *telemetry.Histogram
	barrierNs, barrierSkew        *telemetry.Histogram
	bcast, reduce, allreduce      collective
	injected                      *telemetry.Counter
	injectedAt                    [numSites]*telemetry.Counter // by siteIndex: the plan's corruption sites
	detected, detectedTransport   *telemetry.Counter
	retries, recovered, escalated *telemetry.Counter
	dups, dupsDropped, reorders   *telemetry.Counter
	partitionHeld                 *telemetry.Counter
	slowEvents, slowNs            *telemetry.Counter
}

// collective is one collective's span name and its payload-size and
// duration histograms.
type collective struct {
	name      string
	bytes, ns *telemetry.Histogram
}

// resolveMetrics fills w.met from w.telemetry and w.fault.
func (w *World) resolveMetrics() {
	tel := w.telemetry
	w.met = metrics{
		sendMsgs: tel.Counter("mpi.send.msgs"), sendBytes: tel.Histogram("mpi.send.bytes"),
		recvNs: tel.Histogram("mpi.op.recv_ns"), barrierNs: tel.Histogram("mpi.op.barrier_ns"),
		barrierSkew: tel.Histogram("mpi.barrier.skew_ns"),
		bcast:       collective{"bcast", tel.Histogram("mpi.bcast.bytes"), tel.Histogram("mpi.op.bcast_ns")},
		reduce:      collective{"reduce", tel.Histogram("mpi.reduce.bytes"), tel.Histogram("mpi.op.reduce_ns")},
		allreduce:   collective{"allreduce", tel.Histogram("mpi.allreduce.bytes"), tel.Histogram("mpi.op.allreduce_ns")},
	}
	if w.fault == nil {
		return
	}
	m := &w.met
	m.injected, m.detected, m.detectedTransport = tel.Counter("sdc.injected"), tel.Counter("sdc.detected"), tel.Counter("sdc.detected.transport")
	m.retries, m.recovered, m.escalated = tel.Counter("sdc.retries"), tel.Counter("sdc.recovered"), tel.Counter("sdc.escalated")
	m.dups, m.dupsDropped, m.reorders = tel.Counter("chaos.dups"), tel.Counter("chaos.dups_dropped"), tel.Counter("chaos.reorders")
	m.partitionHeld = tel.Counter("chaos.partition_held")
	m.slowEvents, m.slowNs = tel.Counter("chaos.slowdown.events"), tel.Counter("chaos.slowdown_ns")
	w.fault.slowEvents = m.slowEvents
	for _, cr := range w.fault.plan.Corrupts {
		m.injectedAt[siteIndex(cr.Site)] = tel.Counter(injectedNames[siteIndex(cr.Site)])
	}
}

// countInjected counts one corruption landed at site.
func (w *World) countInjected(site FaultSite) {
	w.met.injected.Add(1)
	w.met.injectedAt[siteIndex(site)].Add(1)
}

// newWorld builds the shared state of a run of size ranks.
func newWorld(size int) *World {
	w := &World{
		size:    size,
		boxes:   make([]*mailbox, size),
		barrier: newCyclicBarrier(size),
		collSeq: make([]atomic.Int64, size),
		wins:    make(map[int]*window),
		winSeq:  make([]int, size),
		fenced:  make([]atomic.Bool, size),
	}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	return w
}

// Comm is one rank's communicator handle.
type Comm struct {
	rank  int
	size  int
	world *World
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.size }

// Telemetry returns the run's telemetry session (nil when disabled); all
// layers above the runtime (ddi, fock, scf) reach telemetry through this.
func (c *Comm) Telemetry() *telemetry.Session { return c.world.telemetry }

// Send delivers a copy of data to rank dest with the given tag. Tags must
// be in [0, 1<<24).
func (c *Comm) Send(dest, tag int, data []float64) {
	c.checkPeer(dest)
	c.checkTag(tag)
	c.send(dest, tag, data)
}

func (c *Comm) send(dest, tag int, data []float64) {
	n, cr := c.faultHookSend()
	c.world.met.sendMsgs.Add(1)
	c.world.met.sendBytes.Observe(int64(8 * len(data)))
	msg := message{source: c.rank, tag: tag}
	if data != nil {
		msg.data = append([]float64(nil), data...)
	}
	c.frameAndDeliver(dest, msg, cr, n)
}

// faultHookSend fires the send-site fault hook and returns the send
// event ordinal alongside any corruption — the ordinal is what the chaos
// routing matches Duplicate/Reorder schedules against.
func (c *Comm) faultHookSend() (n int64, cr *Corrupt) {
	if c.world.fault == nil {
		return 0, nil
	}
	return c.world.fault.hitN(c.rank, SiteSend)
}

// frameAndDeliver checksums the (clean) payload, applies any scheduled
// corruption to the in-flight copy, and delivers. Because every
// collective is built on this point-to-point path, Bcast/Reduce/
// Allreduce all inherit verified framing — and, in chaos runs, sequenced
// delivery — for free. n is the send event ordinal from faultHookSend (0
// without a fault plan).
func (c *Comm) frameAndDeliver(dest int, msg message, cr *Corrupt, n int64) {
	w := c.world
	if !w.noVerify {
		msg.sum = integrity.ChecksumPayload(msg.data, nil)
	}
	if cr != nil {
		// Keep a clean copy for retransmission, then corrupt what flies.
		msg.origin = append([]float64(nil), msg.data...)
		msg.corrupt = cr
		msg.corruptLeft = cr.Repeat
		applyCorruptPayload(cr, msg.data)
		w.countInjected(cr.Site)
	}
	if w.chaosOn {
		w.chaosRoute(c.rank, dest, msg, n)
		return
	}
	w.boxes[dest].deliver(msg)
}

// --- chaos-mode message routing ---

// heldMsg is a reorder-held message waiting for later sends from the
// same sender (or the safety timer) to release it.
type heldMsg struct {
	sender   int
	releaseN int64 // release once the sender's send count reaches this
	dest     int
	msg      message
	released bool
}

// reorderMaxHold bounds how long a reordered message can be withheld
// when its sender stops sending — liveness insurance, sized well under
// any reasonable run deadline.
const reorderMaxHold = 50 * time.Millisecond

// chaosRoute delivers a message under the chaos plan: it assigns the
// channel sequence number, applies partition hold-back, injects
// duplicate copies, and withholds reordered messages until their release
// condition. Every path eventually delivers (partitions heal, reorders
// have a safety timer), so chaos perturbs timing and ordering but never
// loses a message.
func (w *World) chaosRoute(src, dest int, msg message, n int64) {
	ch := chanKey{src: src, dst: dest, tag: msg.tag}
	w.seqMu.Lock()
	w.sendSeqs[ch]++
	msg.seq = w.sendSeqs[ch]
	w.seqMu.Unlock()

	dup, ro := w.fault.sendChaos(src, n)
	copies := 0
	if dup != nil {
		copies = dup.Copies
		if copies <= 0 {
			copies = 1
		}
		w.met.dups.Add(int64(copies))
	}

	if ro != nil {
		behind := ro.Behind
		if behind <= 0 {
			behind = 1
		}
		h := &heldMsg{sender: src, releaseN: n + int64(behind), dest: dest, msg: msg}
		w.heldMu.Lock()
		w.held = append(w.held, h)
		w.heldMu.Unlock()
		w.met.reorders.Add(1)
		time.AfterFunc(reorderMaxHold, func() { w.releaseHeld(src, 1<<62) })
	} else {
		w.chaosDeliver(src, dest, msg)
	}
	// Duplicates of a reordered message are delivered immediately — the
	// receiver sees copies AHEAD of the held original, exercising both the
	// gap wait and the duplicate drop.
	for i := 0; i < copies; i++ {
		w.chaosDeliver(src, dest, msg)
	}
	// This send may satisfy the release condition of earlier holds.
	w.releaseHeld(src, n)
}

// chaosDeliver delivers now, or after the partition heals when the
// message crosses an active partition cut.
func (w *World) chaosDeliver(src, dest int, msg message) {
	if hold := w.fault.partitionDelay(src, dest, time.Since(w.runStart)); hold > 0 {
		w.met.partitionHeld.Add(1)
		box := w.boxes[dest]
		time.AfterFunc(hold+time.Millisecond, func() { box.deliver(msg) })
		return
	}
	w.boxes[dest].deliver(msg)
}

// releaseHeld delivers every held message of the given sender whose
// release condition (send count reached, or safety-timer flush with a
// huge n) is now met.
func (w *World) releaseHeld(sender int, n int64) {
	var release []*heldMsg
	w.heldMu.Lock()
	for _, h := range w.held {
		if !h.released && h.sender == sender && n >= h.releaseN {
			h.released = true
			release = append(release, h)
		}
	}
	w.heldMu.Unlock()
	for _, h := range release {
		w.chaosDeliver(h.sender, h.dest, h.msg)
	}
}

// applyCorruptPayload mutates a payload per the corruption schedule:
// NaN-poison or bit-flip (an empty payload has nothing to corrupt).
func applyCorruptPayload(cr *Corrupt, floats []float64) {
	if cr.Kind == CorruptNaN {
		integrity.PoisonNaN(floats, cr.Index)
	} else {
		integrity.FlipFloatBit(floats, cr.Index, cr.Bit)
	}
}

// Verification retry policy: a corrupted payload gets maxRetransmits
// chances to arrive clean, with full-jitter exponential backoff over a
// window starting at retryBackoff0, before the receiver escalates to a
// KindCorrupted RankFailure (persistent corruption is a sick node, not a
// soft error).
const (
	maxRetransmits = 3
	retryBackoff0  = 50 * time.Microsecond
)

// splitmix64 is the SplitMix64 finalizer — a tiny, allocation-free,
// statistically solid mixer for deterministic jitter seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// retryBackoff returns the sleep before retransmit attempt (0-based):
// full jitter, uniform in [0, retryBackoff0·2^attempt). Deterministic
// doubling made concurrent mismatching receivers retry in lockstep,
// hammering the sender in synchronized waves; full jitter desynchronizes
// them while the hash seed — receiver rank, message envelope, attempt —
// keeps every run bit-reproducible.
func retryBackoff(rank, source, tag, attempt int) time.Duration {
	window := retryBackoff0 << uint(attempt)
	seed := uint64(rank)<<48 ^ uint64(source)<<32 ^ uint64(uint32(tag))<<8 ^ uint64(attempt)
	return time.Duration(splitmix64(seed) % uint64(window))
}

// verifyMsg checks the payload against its checksum frame and drives the
// retry/backoff/escalation ladder. It runs OUTSIDE the mailbox lock, on
// the receiving rank, so exactly one rank observes each corruption —
// which is what keeps the sdc.detected counter equal to sdc.injected.
func (c *Comm) verifyMsg(msg message) message {
	w := c.world
	if w.noVerify {
		return msg
	}
	m := &w.met
	for attempt := 0; ; attempt++ {
		if integrity.ChecksumPayload(msg.data, nil) == msg.sum {
			if attempt > 0 {
				m.recovered.Add(1)
			}
			return msg
		}
		if attempt == 0 {
			// Count detection once per corrupted message, not per retry.
			m.detected.Add(1)
			m.detectedTransport.Add(1)
		}
		if attempt >= maxRetransmits {
			m.escalated.Add(1)
			panic(corruptionPanic{rank: c.rank, site: "recv",
				err: fmt.Errorf("payload from rank %d (tag %d, %d floats) failed checksum verification %d times",
					msg.source, msg.tag, len(msg.data), attempt+1)})
		}
		m.retries.Add(1)
		time.Sleep(retryBackoff(c.rank, msg.source, msg.tag, attempt))
		msg.retransmit()
	}
}

// retransmit restores the payload from the sender-side clean copy,
// re-corrupting it while the schedule's Repeat budget lasts. Without a
// clean copy (corruption was not injected — impossible in-process, but
// the defensive path is kept) the same bytes are retried and the ladder
// runs to escalation.
func (msg *message) retransmit() {
	if msg.origin == nil {
		return
	}
	msg.data = append([]float64(nil), msg.origin...)
	if msg.corruptLeft > 0 {
		msg.corruptLeft--
		applyCorruptPayload(msg.corrupt, msg.data)
	}
}

// Recv blocks until a message matching source and tag arrives and returns
// its payload along with the actual source and tag (useful with
// wildcards).
func (c *Comm) Recv(source, tag int) (data []float64, actualSource, actualTag int) {
	if source != AnySource {
		c.checkPeer(source)
	}
	c.faultHook(SiteRecv)
	sp := c.world.telemetry.Start("mpi.op", "recv", c.rank, 0, c.world.met.recvNs)
	msg := c.world.boxes[c.rank].take(c, source, tag)
	sp.End(nil)
	msg = c.verifyMsg(msg)
	return msg.data, msg.source, msg.tag
}

// InjectSDC fires the fault hook for a corruption-only site (SiteFock)
// and applies any scheduled corruption to the given buffer in place,
// reporting whether one landed. The owning layer (the Fock task loops)
// calls it once per task; telemetry counts the injection here so
// detection layers can be audited against it.
func (c *Comm) InjectSDC(site FaultSite, floats []float64) bool {
	cr := c.faultHook(site)
	if cr == nil {
		return false
	}
	applyCorruptPayload(cr, floats)
	c.world.countInjected(site)
	return true
}

// InjectSDCBytes is InjectSDC for serialized byte payloads (SiteCheckpoint):
// it flips one bit of one byte per the schedule.
func (c *Comm) InjectSDCBytes(site FaultSite, data []byte) bool {
	cr := c.faultHook(site)
	if cr == nil {
		return false
	}
	integrity.FlipByteBit(data, cr.Index, cr.Bit)
	c.world.countInjected(site)
	return true
}

func (c *Comm) checkPeer(r int) {
	if r < 0 || r >= c.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, c.size))
	}
}

func (c *Comm) checkTag(tag int) {
	if tag < 0 || tag >= internalTagBase {
		panic(fmt.Sprintf("mpi: user tag %d out of range", tag))
	}
}

// --- barrier ---

// cyclicBarrier is a reusable counting barrier for size participants.
type cyclicBarrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	size     int
	count    int
	gen      int
	poisoned bool
	// firstArrival is the entry time of the current generation's first
	// rank; the closing rank turns it into the barrier-arrival skew
	// metric (how long the earliest rank idled waiting for the latest).
	firstArrival time.Time
}

func newCyclicBarrier(size int) *cyclicBarrier {
	b := &cyclicBarrier{size: size}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *cyclicBarrier) await(c *Comm) {
	deadline := c.world.deadline
	var start time.Time
	if deadline > 0 {
		start = time.Now()
	}
	skew := c.world.met.barrierSkew
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned {
		panicPoisoned(c)
	}
	gen := b.gen
	b.count++
	if skew != nil && b.count == 1 {
		b.firstArrival = time.Now()
	}
	if b.count == b.size {
		if skew != nil && b.size > 1 {
			skew.Observe(time.Since(b.firstArrival).Nanoseconds())
		}
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen && !b.poisoned {
		if deadline > 0 {
			if el := time.Since(start); el > deadline {
				// Withdraw: this rank never completed the barrier.
				b.count--
				panic(timeoutPanic{rank: c.rank, site: "barrier", elapsed: el})
			}
		}
		b.cond.Wait()
	}
	if b.poisoned {
		panicPoisoned(c)
	}
}

// panicPoisoned unwinds a rank that observed a poisoned barrier with the
// typed failure that caused the poison.
func panicPoisoned(c *Comm) {
	if f := c.world.poisonF.Load(); f != nil {
		panic(failurePanic{f: f})
	}
	// Poisoned before the failure record landed; synthesize a generic one.
	panic(failurePanic{f: &RankFailure{Rank: -1, Site: "barrier", Kind: KindPanic,
		Cause: "peer rank failure"}})
}

func (b *cyclicBarrier) poison() {
	b.mu.Lock()
	b.poisoned = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() {
	c.faultHook(SiteBarrier)
	sp := c.world.telemetry.Start("mpi.op", "barrier", c.rank, 0, c.world.met.barrierNs)
	c.world.barrier.await(c)
	sp.End(nil)
}
