package sim

import (
	"fmt"
	"sync/atomic"
)

// Sharded deterministic runtime: N event loops over disjoint actor groups,
// synchronized by conservative time-window barriers.
//
// Every actor is assigned to exactly one shard; a shard owns a private 4-ary
// event heap and clock and delivers its actors' events on its own goroutine.
// Execution proceeds in windows [low, low+Horizon): all shards deliver their
// events with at < bound in parallel, then a barrier exchanges the
// cross-shard sends produced during the window, and the next window begins.
// A cross-shard send executed inside a window starting at W departs at local
// time >= W and travels with latency >= Horizon, so it arrives at >= W +
// Horizon — at or after the bound — and is always merged at the barrier
// before any shard could need it. The runtime enforces this lookahead
// invariant with a panic, so a mis-tuned Horizon fails loudly instead of
// silently reordering.
//
// Determinism does not depend on the number of shards. Events are keyed
// (at, src, srcSeq): the delivery time, the sending actor, and that sender's
// own send counter. The key is a total order (srcSeq is unique per sender)
// that is computed entirely from per-actor state, so it is identical at
// every width — a global insertion counter would instead reflect one
// particular interleaving of the shards. Because heap pop order is purely
// key-determined, the order in which the barrier pushes exchanged events is
// irrelevant, and a run with Shards=1 is bit-identical to the same run with
// Shards=N. External injections (SendAt, KillAt) use src = NoActor with a
// scheduler-level counter that only advances between drive calls, which is
// width-independent by construction.
type ShardedScheduler struct {
	width   int
	horizon Time
	shards  []shard
	actors  []shardActor // index = ActorID-1
	injSeq  uint64       // sequence for src = NoActor injections
	// low is the exclusive upper bound of virtual time processed so far:
	// every event with at < low has been delivered. The next window is
	// [low, low+horizon), clipped to the drive call's until.
	low      Time
	stopped  bool
	stopReq  atomic.Bool
	halt     bool // width 1 only: Stop ends the current window after this delivery
	inWindow bool // true while worker goroutines own the shards

	barriers  uint64
	crossMsgs uint64
}

// shardEvent is a scheduled delivery keyed (at, src, seq) — see the type
// comment on ShardedScheduler for why this key is width-independent.
type shardEvent struct {
	at   Time
	seq  uint64 // per-sender sequence (or the injection sequence)
	msg  Message
	src  ActorID // sending actor, or NoActor for external injections
	to   ActorID
	kill bool // kill marker: mark the destination dead instead of delivering
}

func (a *shardEvent) before(b *shardEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

type shardActor struct {
	handler   Handler
	name      string
	shard     int32
	dead      bool
	busyUntil Time
	busyTotal Time
	sendSeq   uint64 // stamps this actor's outgoing events
	pending   int    // events queued for this actor (in its shard's heap)
}

// shard is one event loop: a heap, a clock, and the Context its actors see.
// During a window it is owned exclusively by its worker goroutine; between
// windows the coordinating goroutine owns all shards (the channel
// synchronization around each window establishes the happens-before edges).
type shard struct {
	h         shardHeap
	now       Time
	bound     Time // current window's exclusive bound, set before the window
	delivered uint64
	dropped   uint64
	live      int // queued events destined for live actors of this shard
	outbox    [][]shardEvent
	ctx       Context
}

// NewSharded returns a sharded runtime with the given width and window
// horizon. The horizon must be positive and no larger than the minimum
// cross-shard message latency; violations surface as lookahead panics at the
// first offending send. Width 1 runs the identical windowed algorithm
// without goroutines and is the determinism baseline for every other width.
func NewSharded(width int, horizon Time) *ShardedScheduler {
	if width < 1 {
		panic("sim: NewSharded width must be >= 1")
	}
	if horizon <= 0 {
		panic("sim: NewSharded horizon must be positive")
	}
	s := &ShardedScheduler{width: width, horizon: horizon, shards: make([]shard, width)}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.ctx.s, sh.ctx.si = s, i
		sh.outbox = make([][]shardEvent, width)
	}
	return s
}

// NumShards returns the configured width.
func (s *ShardedScheduler) NumShards() int { return s.width }

// Horizon returns the window length.
func (s *ShardedScheduler) Horizon() Time { return s.horizon }

// Barriers returns the number of window barriers executed so far. The window
// sequence is a function of event times only, so the count is identical at
// every width.
func (s *ShardedScheduler) Barriers() uint64 { return s.barriers }

// CrossShardMsgs returns the number of events exchanged between shards at
// barriers. Unlike Barriers this depends on placement and width (width 1
// exchanges nothing), so it is observability, not part of the deterministic
// result surface.
func (s *ShardedScheduler) CrossShardMsgs() uint64 { return s.crossMsgs }

// Register adds an actor on shard 0 and returns its ID. Use Assign to place
// it before any events are scheduled.
func (s *ShardedScheduler) Register(name string, h Handler) ActorID {
	s.actors = append(s.actors, shardActor{handler: h, name: name})
	return ActorID(len(s.actors))
}

func (s *ShardedScheduler) actor(id ActorID) *shardActor {
	if id <= 0 || int(id) > len(s.actors) {
		panic(fmt.Sprintf("sim: unknown actor %d", id))
	}
	return &s.actors[id-1]
}

// Assign places an actor on a shard. Placement must happen before any event
// is scheduled for the actor: events already queued would sit in the wrong
// heap.
func (s *ShardedScheduler) Assign(id ActorID, shard int) {
	if shard < 0 || shard >= s.width {
		panic("sim: Assign shard out of range")
	}
	a := s.actor(id)
	if a.pending != 0 {
		panic("sim: Assign after events were scheduled for the actor")
	}
	a.shard = int32(shard)
}

// Name returns the name the actor was registered with.
func (s *ShardedScheduler) Name(id ActorID) string { return s.actor(id).name }

// BusyTime returns the total virtual CPU time the actor has consumed.
func (s *ShardedScheduler) BusyTime(id ActorID) Time { return s.actor(id).busyTotal }

// Now returns the latest delivery time across all shards — the delivery time
// of the most recent event in virtual order, identical at every width.
func (s *ShardedScheduler) Now() Time {
	var t Time
	for i := range s.shards {
		if s.shards[i].now > t {
			t = s.shards[i].now
		}
	}
	return t
}

// Stop makes Run and Step return without processing further events. The
// flag is sticky until Resume clears it, so a caller (typically a completion
// callback inside a facade drive call) can halt a run mid-flight and later
// continue it from exactly where it left off. At width 1, a Stop issued by
// the event being delivered ends the run right after that delivery. At
// larger widths other shards are mid-window concurrently, so the stop takes
// effect at the next barrier, as Context.Stop does at every width.
func (s *ShardedScheduler) Stop() {
	s.stopReq.Store(true)
	if s.width == 1 {
		s.halt = true
	}
}

// Resume clears a Stop.
func (s *ShardedScheduler) Resume() {
	s.stopped = false
	s.halt = false
	s.stopReq.Store(false)
}

// Stopped reports whether the runtime is stopped.
func (s *ShardedScheduler) Stopped() bool { return s.stopped || s.stopReq.Load() }

// Alive reports whether the actor has not been killed.
func (s *ShardedScheduler) Alive(id ActorID) bool { return !s.actor(id).dead }

// SendAt schedules msg for delivery at the given time (external injection).
// Times below the processed horizon are clamped to it.
func (s *ShardedScheduler) SendAt(at Time, to ActorID, msg Message) {
	a := s.actor(to)
	if at < s.low {
		at = s.low
	}
	s.injSeq++
	s.shards[a.shard].push(shardEvent{at: at, src: NoActor, seq: s.injSeq, to: to, msg: msg}, a)
}

// KillAt schedules a fail-stop crash of an actor at an absolute virtual
// time: every event delivered to it from then on — including its own pending
// timers — is silently dropped (counted in DroppedCount), while messages it
// sent before dying still arrive. A kill is permanent. The kill is an event
// in the victim's own shard, ordered before any same-time deliveries from
// live senders (external injections sort first at equal times), so a
// statically scheduled crash lands identically at every width.
func (s *ShardedScheduler) KillAt(at Time, id ActorID) {
	a := s.actor(id)
	if at < s.low {
		at = s.low
	}
	s.injSeq++
	s.shards[a.shard].push(shardEvent{at: at, src: NoActor, seq: s.injSeq, to: id, kill: true}, a)
}

// push enqueues an event, maintaining the destination's pending count and
// the destination shard's live count. The caller must own the destination
// shard (its own shard during a window, or any shard between windows).
func (sh *shard) push(e shardEvent, a *shardActor) {
	a.pending++
	if !a.dead {
		sh.live++
	}
	sh.h.push(e)
}

// Empty reports whether no events remain queued on any shard. Outboxes are
// always drained at barriers, so between drive calls the heaps are the whole
// state.
func (s *ShardedScheduler) Empty() bool {
	for i := range s.shards {
		if s.shards[i].h.Len() != 0 {
			return false
		}
	}
	return true
}

// Pending returns the number of queued events destined for live actors,
// summed over shards in O(width).
func (s *ShardedScheduler) Pending() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].live
	}
	return n
}

// DeliveredCount returns the total events delivered across shards. Kill
// markers are internal and never counted, nor are dropped events.
func (s *ShardedScheduler) DeliveredCount() uint64 {
	var n uint64
	for i := range s.shards {
		n += s.shards[i].delivered
	}
	return n
}

// DroppedCount returns the total events dropped on dead actors.
func (s *ShardedScheduler) DroppedCount() uint64 {
	var n uint64
	for i := range s.shards {
		n += s.shards[i].dropped
	}
	return n
}

// ShardBusy returns the summed virtual busy time of each shard's actors —
// the per-shard load-balance view the facade reports.
func (s *ShardedScheduler) ShardBusy() []Time {
	out := make([]Time, s.width)
	for i := range s.actors {
		a := &s.actors[i]
		out[a.shard] += a.busyTotal
	}
	return out
}

// send schedules msg on behalf of actor from, delivered by shard si.
// Intra-shard sends (and all sends while no window is running, e.g. under
// Step or at width 1) go straight into the destination heap; cross-shard
// sends during a window are buffered in the outbox after the lookahead check
// and merged at the barrier.
func (s *ShardedScheduler) send(si int, from ActorID, at Time, to ActorID, msg Message) {
	a := s.actor(to)
	sh := &s.shards[si]
	if at < sh.now {
		at = sh.now
	}
	src := &s.actors[from-1]
	src.sendSeq++
	e := shardEvent{at: at, src: from, seq: src.sendSeq, to: to, msg: msg}
	dst := int(a.shard)
	if dst == si || !s.inWindow {
		s.shards[dst].push(e, a)
		return
	}
	if at < sh.bound {
		panic("sim: cross-shard send from " + src.name + " to " + a.name +
			" arrives before the window bound; Horizon exceeds the minimum cross-shard latency")
	}
	sh.outbox[dst] = append(sh.outbox[dst], e)
}

// minPending returns the earliest queued event time across shards.
func (s *ShardedScheduler) minPending() (Time, bool) {
	var t Time
	found := false
	for i := range s.shards {
		if e := s.shards[i].h.top(); e != nil && (!found || e.at < t) {
			t, found = e.at, true
		}
	}
	return t, found
}

// runWindow delivers every queued event with at < bound on one shard, in
// (at, src, seq) order, including events generated during the window that
// still fall inside it. It returns the number of events popped (delivered or
// dropped), excluding kill markers. A width-1 Stop (halt) ends the window
// early, right after the delivery that raised it.
func (s *ShardedScheduler) runWindow(si int, bound Time) int {
	sh := &s.shards[si]
	n := 0
	for {
		if e := sh.h.top(); e == nil || e.at >= bound {
			return n
		}
		if s.popDeliver(sh) {
			n++
			if s.halt {
				return n
			}
		}
	}
}

// popDeliver pops the earliest event of a non-empty shard and dispatches it,
// modelling the actor's single-threaded CPU: service starts at
// max(arrival, busyUntil). A kill marker marks its actor dead instead, and a
// message to a dead actor is dropped. It reports whether the event was a
// message (delivered or dropped) rather than a kill marker.
func (s *ShardedScheduler) popDeliver(sh *shard) bool {
	e := sh.h.top()
	at, to, msg, kill := e.at, e.to, e.msg, e.kill
	sh.h.pop()
	sh.now = at
	a := &s.actors[to-1]
	a.pending--
	if a.dead {
		if !kill {
			sh.dropped++
		}
		return !kill
	}
	sh.live--
	if kill {
		a.dead = true
		sh.live -= a.pending
		return false
	}
	start := at
	if a.busyUntil > start {
		start = a.busyUntil
	}
	sh.ctx.self = to
	sh.ctx.local = start
	a.handler.Receive(&sh.ctx, msg)
	a.busyUntil = sh.ctx.local
	a.busyTotal += sh.ctx.local - start
	sh.delivered++
	return true
}

// exchange drains every outbox into the destination heaps. Heap order is
// purely key-determined, so insertion order does not matter; the lookahead
// invariant was already checked at send time.
func (s *ShardedScheduler) exchange() {
	moved := uint64(0)
	for si := range s.shards {
		sh := &s.shards[si]
		for di := range sh.outbox {
			box := sh.outbox[di]
			for i := range box {
				s.shards[di].push(box[i], &s.actors[box[i].to-1])
				box[i] = shardEvent{} // release the Message reference
			}
			sh.outbox[di] = box[:0]
			moved += uint64(len(box))
		}
	}
	s.crossMsgs += moved
}

// windowResult carries one shard's window outcome back to the coordinator.
type windowResult struct {
	n        int
	panicked any
}

// Run processes events in windows until the queue is empty, the next event's
// delivery time exceeds until, or a stop takes effect (see Stop). It returns
// the number of events processed. Unless Stop halts a width-1 run
// mid-window, the window sequence — and therefore every observable outcome —
// is identical at every width.
func (s *ShardedScheduler) Run(until Time) int {
	if s.stopped || s.stopReq.Load() {
		s.stopped = true
		return 0
	}
	total := 0
	var jobs []chan Time
	var done chan windowResult
	if s.width > 1 {
		jobs = make([]chan Time, s.width)
		done = make(chan windowResult, s.width)
		for i := range jobs {
			jobs[i] = make(chan Time, 1)
			go s.worker(i, jobs[i], done)
		}
		defer func() {
			for i := range jobs {
				close(jobs[i])
			}
		}()
	}
	for {
		t, ok := s.minPending()
		if !ok || t > until {
			break
		}
		if t > s.low {
			s.low = t // skip idle gaps window-aligned to the next event
		}
		bound := s.low + s.horizon
		if until < bound-1 {
			bound = until + 1 // clip the final window so at == until is included
		}
		s.barriers++
		for i := range s.shards {
			s.shards[i].bound = bound
		}
		if s.width == 1 {
			total += s.runWindow(0, bound)
			if s.halt {
				// Halted mid-window: everything before the halting event's
				// time has been delivered, so that is the processed horizon.
				s.low = s.shards[0].now
				s.stopped = true
				break
			}
		} else {
			s.inWindow = true
			for i := range jobs {
				jobs[i] <- bound
			}
			var pan any
			for i := 0; i < s.width; i++ {
				r := <-done
				total += r.n
				if r.panicked != nil {
					pan = r.panicked
				}
			}
			s.inWindow = false
			if pan != nil {
				panic(pan)
			}
			s.exchange()
		}
		s.low = bound
		if s.stopReq.Load() {
			s.stopped = true
			break
		}
	}
	return total
}

// worker is one shard's event loop for the duration of a Run call: it waits
// for a window bound, runs the window, and reports back. Panics inside
// handlers are captured and re-raised by the coordinator after the barrier,
// so sibling shards finish their window and the runtime stays consistent.
func (s *ShardedScheduler) worker(si int, jobs <-chan Time, done chan<- windowResult) {
	for bound := range jobs {
		var r windowResult
		func() {
			defer func() { r.panicked = recover() }()
			r.n = s.runWindow(si, bound)
		}()
		done <- r
	}
}

// Drain runs until no events remain (no time bound).
func (s *ShardedScheduler) Drain() int {
	return s.Run(Time(1<<62 - 1))
}

// Step delivers exactly one event — the globally earliest by (at, src, seq)
// — and returns true, or returns false when every heap is empty or the
// runtime is stopped. Stepping is single-threaded: cross-shard sends route
// directly into the destination heap, and because the heap key totals the
// order, interleaving Step with windowed Run preserves determinism. Kill
// markers encountered on the way are applied and skipped.
func (s *ShardedScheduler) Step() bool {
	if s.stopped || s.stopReq.Load() {
		s.stopped = true
		return false
	}
	for {
		var sh *shard
		var bk *shardEvent
		for i := range s.shards {
			if e := s.shards[i].h.top(); e != nil && (bk == nil || e.before(bk)) {
				sh, bk = &s.shards[i], e
			}
		}
		if sh == nil {
			return false
		}
		if bk.at > s.low {
			s.low = bk.at
		}
		if s.popDeliver(sh) {
			return true
		}
	}
}
