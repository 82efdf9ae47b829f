package sim

import (
	"math/rand"
	"testing"
)

// TestPopZeroesVacatedSlot is the liveness regression test for the heap's
// moved-from tail element: pop used to leave it in the backing array, so the
// last-popped event's Message (and everything it references) stayed
// reachable — and uncollectable — for as long as the heap lived.
func TestPopZeroesVacatedSlot(t *testing.T) {
	var h shardHeap
	payloads := []*[]byte{}
	for i := 0; i < 16; i++ {
		p := make([]byte, 1)
		payloads = append(payloads, &p)
		h.push(shardEvent{at: Time(i), src: 1, seq: uint64(i), to: 1, msg: &p})
	}
	for i := 0; i < 12; i++ {
		h.pop()
	}
	// Every slot beyond the live length must be fully zeroed.
	backing := h.ev[:cap(h.ev)]
	for i := len(h.ev); i < len(backing); i++ {
		if backing[i] != (shardEvent{}) {
			t.Fatalf("vacated slot %d still holds %+v", i, backing[i])
		}
	}
	_ = payloads
}

// TestHeapRandomPushPop interleaves pushes and pops and checks the pop
// sequence is always the (at, src, seq) minimum of what remains — the 4-ary
// sift-down must behave exactly like a binary one would.
func TestHeapRandomPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h shardHeap
	// Sequences are unique across senders here, so seq alone identifies a
	// live event.
	live := map[uint64]shardEvent{}
	seq := uint64(0)
	for round := 0; round < 5000; round++ {
		if h.Len() == 0 || rng.Intn(3) != 0 {
			seq++
			e := shardEvent{at: Time(rng.Intn(50)), src: ActorID(rng.Intn(4)), seq: seq, to: 1}
			h.push(e)
			live[seq] = e
		} else {
			e := *h.top()
			h.pop()
			// e must be the minimum of live by (at, src, seq).
			for _, o := range live {
				if o.before(&e) {
					t.Fatalf("popped %+v but %+v was smaller", e, o)
				}
			}
			delete(live, e.seq)
		}
	}
	prev := shardEvent{at: -1}
	for h.Len() > 0 {
		e := *h.top()
		h.pop()
		if e.before(&prev) {
			t.Fatalf("drain out of order: %+v after %+v", e, prev)
		}
		prev = e
		delete(live, e.seq)
	}
	if len(live) != 0 {
		t.Fatalf("%d events lost", len(live))
	}
}

// TestActorAccessorsPanicOnUnknownID: every actor accessor must reject
// ActorID(0), negative and unregistered IDs with the scheduler's clear panic
// message, not a raw slice index error.
func TestActorAccessorsPanicOnUnknownID(t *testing.T) {
	s := newWidth1()
	s.Register("only", HandlerFunc(func(*Context, Message) {}))
	cases := []struct {
		name string
		call func(id ActorID)
	}{
		{"Name", func(id ActorID) { s.Name(id) }},
		{"BusyTime", func(id ActorID) { s.BusyTime(id) }},
		{"Alive", func(id ActorID) { s.Alive(id) }},
		{"KillAt", func(id ActorID) { s.KillAt(0, id) }},
		{"Assign", func(id ActorID) { s.Assign(id, 0) }},
	}
	for _, tc := range cases {
		for _, id := range []ActorID{0, -1, 2, 99} {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s(%d) did not panic", tc.name, id)
					}
					if msg, ok := r.(string); !ok || msg != "sim: unknown actor "+itoa(int(id)) {
						t.Fatalf("%s(%d) panic = %v, want clear message", tc.name, id, r)
					}
				}()
				tc.call(id)
			}()
		}
	}
	// Valid IDs still work.
	if s.Name(1) != "only" || !s.Alive(1) {
		t.Fatal("valid actor rejected")
	}
}

// itoa avoids strconv in the panic-message comparison.
func itoa(v int) string {
	neg := v < 0
	if neg {
		v = -v
	}
	var b [8]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// TestStepAllocationFree pins the kernel's allocations per event at zero:
// once the heap's backing array has grown to its working size, delivering an
// event (pop, dispatch, push of the reply) must not allocate, whether by
// Step or by a width-1 windowed Run.
func TestStepAllocationFree(t *testing.T) {
	s := newWidth1()
	var a1, a2 ActorID
	msg := &struct{ hops int }{}
	a1 = s.Register("a1", HandlerFunc(func(ctx *Context, m Message) {
		ctx.Spend(Microsecond)
		ctx.Send(a2, m, 10*Microsecond)
	}))
	a2 = s.Register("a2", HandlerFunc(func(ctx *Context, m Message) {
		ctx.Spend(Microsecond)
		ctx.Send(a1, m, 10*Microsecond)
	}))
	s.SendAt(0, a1, msg)
	// Warm the heap and scheduler state.
	for i := 0; i < 64; i++ {
		if !s.Step() {
			t.Fatal("ping-pong went quiescent")
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if !s.Step() {
			t.Fatal("ping-pong went quiescent")
		}
	})
	if avg != 0 {
		t.Fatalf("Step allocates %.2f objects/event, want 0", avg)
	}
	avg = testing.AllocsPerRun(200, func() {
		if s.Run(s.Now()+11*Microsecond) != 1 {
			t.Fatal("ping-pong went quiescent")
		}
	})
	if avg != 0 {
		t.Fatalf("width-1 Run allocates %.2f objects/event, want 0", avg)
	}
}
