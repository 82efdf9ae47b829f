package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// recorder records every delivery it sees with the local service-start time.
type recorder struct {
	got []recorded
}

type recorded struct {
	msg Message
	at  Time
}

func (r *recorder) Receive(ctx *Context, m Message) {
	r.got = append(r.got, recorded{m, ctx.Now()})
}

// newWidth1 returns the single-shard runtime every DB runs on without
// WithParallelism. The horizon only sets the window length (and therefore
// where a Context.Stop lands); it never reorders deliveries.
func newWidth1() *ShardedScheduler { return NewSharded(1, Microsecond) }

func TestDeliveryOrder(t *testing.T) {
	s := newWidth1()
	r := &recorder{}
	a := s.Register("a", r)
	s.SendAt(30*Microsecond, a, "third")
	s.SendAt(10*Microsecond, a, "first")
	s.SendAt(20*Microsecond, a, "second")
	s.Drain()
	want := []string{"first", "second", "third"}
	if len(r.got) != len(want) {
		t.Fatalf("delivered %d events, want %d", len(r.got), len(want))
	}
	for i, w := range want {
		if r.got[i].msg != w {
			t.Errorf("delivery %d = %v, want %v", i, r.got[i].msg, w)
		}
	}
}

// TestTieBreakBySequence pins the (at, src, seq) order of same-time
// deliveries: external injections (src NoActor) first in injection order,
// then each sending actor's events in ascending actor ID, each sender's own
// events in send order — regardless of when the sends were executed.
func TestTieBreakBySequence(t *testing.T) {
	s := newWidth1()
	r := &recorder{}
	var sink ActorID
	fanOut := func(tag string) HandlerFunc {
		return func(ctx *Context, m Message) {
			for i := 0; i < 3; i++ {
				ctx.SendAt(50*Microsecond, sink, fmt.Sprintf("%s%d", tag, i))
			}
		}
	}
	a := s.Register("a", fanOut("a"))
	b := s.Register("b", fanOut("b"))
	sink = s.Register("sink", r)
	// b sends before a, and the injections are scheduled before both.
	s.SendAt(0, b, "go")
	s.SendAt(10*Microsecond, a, "go")
	for i := 0; i < 3; i++ {
		s.SendAt(50*Microsecond, sink, fmt.Sprintf("x%d", i))
	}
	s.Drain()
	want := []string{"x0", "x1", "x2", "a0", "a1", "a2", "b0", "b1", "b2"}
	if len(r.got) != len(want) {
		t.Fatalf("delivered %d events, want %d", len(r.got), len(want))
	}
	for i, w := range want {
		if r.got[i].msg != w {
			t.Fatalf("same-time events reordered: slot %d = %v, want %v", i, r.got[i].msg, w)
		}
	}
}

// spender charges a fixed cost per message.
type spender struct {
	cost   Time
	starts []Time
}

func (sp *spender) Receive(ctx *Context, m Message) {
	sp.starts = append(sp.starts, ctx.Now())
	ctx.Spend(sp.cost)
}

func TestBusyUntilQueueing(t *testing.T) {
	s := newWidth1()
	sp := &spender{cost: 10 * Microsecond}
	a := s.Register("a", sp)
	// Three messages arrive at t=0; service must start at 0, 10, 20.
	for i := 0; i < 3; i++ {
		s.SendAt(0, a, i)
	}
	s.Drain()
	want := []Time{0, 10 * Microsecond, 20 * Microsecond}
	for i, w := range want {
		if sp.starts[i] != w {
			t.Errorf("service %d started at %v, want %v", i, sp.starts[i], w)
		}
	}
	if got := s.Now(); got != 0 {
		// Scheduler time is delivery time of last event (0), even though
		// the actor was busy until 30µs.
		t.Errorf("scheduler now = %v, want 0", got)
	}
}

func TestIdleGapResetsService(t *testing.T) {
	s := newWidth1()
	sp := &spender{cost: 10 * Microsecond}
	a := s.Register("a", sp)
	s.SendAt(0, a, "x")
	s.SendAt(100*Microsecond, a, "y")
	s.Drain()
	if sp.starts[1] != 100*Microsecond {
		t.Errorf("second service started at %v, want 100µs", sp.starts[1])
	}
}

// echo sends a reply back to the source carried in the message.
type echo struct{ latency Time }

type ping struct {
	from  ActorID
	hops  int
	trace []Time
}

func (e *echo) Receive(ctx *Context, m Message) {
	p := m.(*ping)
	p.trace = append(p.trace, ctx.Now())
	if p.hops <= 0 {
		return
	}
	p.hops--
	from := p.from
	p.from = ctx.Self()
	ctx.Send(from, p, e.latency)
}

func TestSendLatency(t *testing.T) {
	s := newWidth1()
	ea := &echo{latency: 20 * Microsecond}
	eb := &echo{latency: 20 * Microsecond}
	a := s.Register("a", ea)
	b := s.Register("b", eb)
	p := &ping{from: b, hops: 3}
	s.SendAt(0, a, p)
	s.Drain()
	want := []Time{0, 20 * Microsecond, 40 * Microsecond, 60 * Microsecond}
	if len(p.trace) != len(want) {
		t.Fatalf("trace has %d hops, want %d", len(p.trace), len(want))
	}
	for i, w := range want {
		if p.trace[i] != w {
			t.Errorf("hop %d at %v, want %v", i, p.trace[i], w)
		}
	}
}

type timerActor struct {
	fired []Time
}

func (ta *timerActor) Receive(ctx *Context, m Message) {
	switch m {
	case "arm":
		ctx.After(50*Microsecond, "fire")
	case "fire":
		ta.fired = append(ta.fired, ctx.Now())
	}
}

func TestAfterTimer(t *testing.T) {
	s := newWidth1()
	ta := &timerActor{}
	a := s.Register("a", ta)
	s.SendAt(10*Microsecond, a, "arm")
	s.Drain()
	if len(ta.fired) != 1 || ta.fired[0] != 60*Microsecond {
		t.Fatalf("timer fired at %v, want [60µs]", ta.fired)
	}
}

func TestRunUntilBound(t *testing.T) {
	s := newWidth1()
	r := &recorder{}
	a := s.Register("a", r)
	s.SendAt(10*Microsecond, a, 1)
	s.SendAt(20*Microsecond, a, 2)
	s.SendAt(30*Microsecond, a, 3)
	n := s.Run(20 * Microsecond)
	if n != 2 {
		t.Fatalf("Run processed %d events, want 2", n)
	}
	n = s.Drain()
	if n != 1 {
		t.Fatalf("Drain processed %d events, want 1", n)
	}
}

// TestStop pins ShardedScheduler.Stop at width 1: issued by the event being
// delivered, it halts the run right after that delivery, mid-window.
func TestStop(t *testing.T) {
	s := newWidth1()
	stopAfter := 5
	var r *stopper
	r = &stopper{n: &stopAfter, s: s}
	a := s.Register("a", r)
	for i := 0; i < 100; i++ {
		s.SendAt(Time(i)*Microsecond, a, i)
	}
	n := s.Drain()
	if n != 5 {
		t.Fatalf("processed %d events after Stop, want 5", n)
	}
}

type stopper struct {
	n *int
	s *ShardedScheduler
}

func (st *stopper) Receive(ctx *Context, m Message) {
	*st.n--
	if *st.n == 0 {
		st.s.Stop()
	}
}

func TestSendToUnknownActorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown actor")
		}
	}()
	newWidth1().SendAt(0, 7, "x")
}

func TestNegativeSpendPanics(t *testing.T) {
	s := newWidth1()
	a := s.Register("a", handlerFunc(func(ctx *Context, m Message) {
		for _, bad := range []func(){
			func() { ctx.Spend(-1) },
			func() { ctx.Send(ctx.Self(), "x", -1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						panic("expected panic")
					}
				}()
				bad()
			}()
		}
	}))
	s.SendAt(0, a, "x")
	s.Drain()
}

type handlerFunc func(*Context, Message)

func (f handlerFunc) Receive(ctx *Context, m Message) { f(ctx, m) }

// TestHeapProperty checks that an arbitrary batch of scheduled events is
// always delivered in nondecreasing (time, seq) order.
func TestHeapProperty(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) == 0 {
			return true
		}
		s := newWidth1()
		r := &recorder{}
		a := s.Register("a", r)
		for i, tt := range times {
			s.SendAt(Time(tt)*Microsecond, a, i)
		}
		s.Drain()
		if len(r.got) != len(times) {
			return false
		}
		var prev Time = -1
		seen := make(map[int]bool)
		for _, g := range r.got {
			if g.at < prev {
				return false
			}
			prev = g.at
			seen[g.msg.(int)] = true
		}
		return len(seen) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterminism runs a randomized actor network twice with the same seed
// and requires identical traces.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		s := newWidth1()
		rng := rand.New(rand.NewSource(seed))
		var rec recorder
		const n = 8
		ids := make([]ActorID, n)
		for i := 0; i < n; i++ {
			i := i
			ids[i] = s.Register("n", handlerFunc(func(ctx *Context, m Message) {
				rec.got = append(rec.got, recorded{m, ctx.Now()})
				ctx.Spend(Time(rng.Intn(20)) * Microsecond)
				if rng.Intn(4) != 0 {
					ctx.Send(ids[rng.Intn(n)], i, Time(rng.Intn(50))*Microsecond)
				}
			}))
		}
		for i := 0; i < 20; i++ {
			s.SendAt(Time(rng.Intn(100))*Microsecond, ids[rng.Intn(n)], -i)
		}
		s.Run(5 * Millisecond)
		out := make([]Time, len(rec.got))
		for i, g := range rec.got {
			out[i] = g.at
		}
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("different trace lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeString(t *testing.T) {
	if got := (1500 * Nanosecond).String(); got != "1.500µs" {
		t.Errorf("String = %q", got)
	}
	if Microsecond.Micros() != 1 {
		t.Errorf("Micros(1µs) = %v", Microsecond.Micros())
	}
}

func TestKillDropsDeliveries(t *testing.T) {
	s := newWidth1()
	r := &recorder{}
	a := s.Register("victim", r)
	b := s.Register("witness", &recorder{})
	s.SendAt(10*Microsecond, a, "before")
	s.SendAt(30*Microsecond, a, "after")
	s.SendAt(40*Microsecond, b, "other")
	s.KillAt(20*Microsecond, a)
	s.Drain()
	if len(r.got) != 1 || r.got[0].msg != "before" {
		t.Fatalf("victim got %v, want only the pre-kill delivery", r.got)
	}
	if s.DroppedCount() != 1 {
		t.Errorf("Dropped = %d, want 1", s.DroppedCount())
	}
	if s.Alive(a) {
		t.Error("victim still alive")
	}
	if !s.Alive(b) {
		t.Error("witness dead")
	}
	if s.Now() != 40*Microsecond {
		t.Errorf("Now = %v; dropped deliveries must still advance time", s.Now())
	}
}

// HandlerFunc adapts a function to the Handler interface (tests).
type HandlerFunc func(ctx *Context, m Message)

// Receive implements Handler.
func (f HandlerFunc) Receive(ctx *Context, m Message) { f(ctx, m) }

// TestStopIsResumable: Context.Stop lands on the window barrier (here the
// 1µs window holding the stopper's event), and Resume continues the run.
func TestStopIsResumable(t *testing.T) {
	s := newWidth1()
	r := &recorder{}
	a := s.Register("a", r)
	for i := 0; i < 5; i++ {
		s.SendAt(Time(i)*Microsecond, a, i)
	}
	stopper := s.Register("stopper", HandlerFunc(func(ctx *Context, m Message) {
		ctx.Stop()
	}))
	s.SendAt(2*Microsecond+1, stopper, "stop")
	n := s.Drain()
	if !s.Stopped() {
		t.Fatal("scheduler not stopped")
	}
	if len(r.got) != 3 {
		t.Fatalf("delivered %d before stop, want 3", len(r.got))
	}
	if s.Step() || s.Run(Time(1<<60)) != 0 {
		t.Fatal("stopped scheduler processed events")
	}
	s.Resume()
	n += s.Drain()
	if len(r.got) != 5 {
		t.Fatalf("delivered %d after resume, want 5", len(r.got))
	}
	if n != 6 { // 5 payloads + the stop event
		t.Errorf("processed %d events total, want 6", n)
	}
}
