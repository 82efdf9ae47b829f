package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// chatter is a deterministic traffic generator actor for width-equivalence
// tests: on every delivery it spends a little CPU, forwards a hop counter to
// a peer with a latency at or above the horizon, and occasionally arms a
// short self-timer. All randomness comes from its own seeded rng, so its
// behavior is a pure function of its delivery sequence — which is exactly
// what the sharded runtime must keep identical at every width.
type chatter struct {
	id      ActorID
	peers   []ActorID
	rng     *rand.Rand
	horizon Time
	trace   []string
}

type hop struct {
	n    int
	from ActorID
}

func (c *chatter) Receive(ctx *Context, m Message) {
	c.trace = append(c.trace, fmt.Sprintf("%v %T %v", ctx.Now(), m, m))
	ctx.Spend(Time(c.rng.Intn(5)) * Microsecond / 10)
	switch v := m.(type) {
	case hop:
		if v.n <= 0 {
			return
		}
		to := c.peers[c.rng.Intn(len(c.peers))]
		lat := c.horizon + Time(c.rng.Intn(30))*Microsecond/10
		ctx.Send(to, hop{n: v.n - 1, from: c.id}, lat)
		if c.rng.Intn(4) == 0 {
			// Self-timers are intra-shard at every width, so any latency
			// below the horizon is fair game.
			ctx.After(Time(1+c.rng.Intn(9))*Microsecond/10, hop{n: v.n - 1, from: c.id})
		}
	}
}

// buildChatter wires nActors chatter actors striped over width shards and
// seeds nSeeds initial hops. It returns the runtime and the actors.
func buildChatter(width, nActors, nSeeds int, horizon Time, kills bool) (*ShardedScheduler, []*chatter) {
	s := NewSharded(width, horizon)
	actors := make([]*chatter, nActors)
	ids := make([]ActorID, nActors)
	for i := range actors {
		actors[i] = &chatter{rng: rand.New(rand.NewSource(int64(i) + 1)), horizon: horizon}
		ids[i] = s.Register(fmt.Sprintf("chatter-%d", i), actors[i])
		s.Assign(ids[i], i*width/nActors)
	}
	for i := range actors {
		actors[i].id = ids[i]
		actors[i].peers = ids
	}
	for i := 0; i < nSeeds; i++ {
		s.SendAt(Time(i)*Microsecond, ids[i%nActors], hop{n: 40})
	}
	if kills {
		s.KillAt(200*Microsecond, ids[0])
		s.KillAt(350*Microsecond, ids[nActors/2])
	}
	return s, actors
}

// fingerprintChatter summarizes a finished run: per-actor delivery traces,
// busy times, and the global counters.
func fingerprintChatter(s *ShardedScheduler, actors []*chatter) string {
	var b strings.Builder
	for i, a := range actors {
		id := ActorID(i + 1)
		fmt.Fprintf(&b, "actor %d busy=%v alive=%v trace=%v\n", i, s.BusyTime(id), s.Alive(id), a.trace)
	}
	fmt.Fprintf(&b, "delivered=%d dropped=%d now=%v pending=%d empty=%v\n",
		s.DeliveredCount(), s.DroppedCount(), s.Now(), s.Pending(), s.Empty())
	return b.String()
}

// TestShardedWidthEquivalence is the core determinism property: the same
// actor system produces bit-identical traces, busy times, and counters at
// widths 1, 2, 3, and 7, with and without scheduled kills.
func TestShardedWidthEquivalence(t *testing.T) {
	const horizon = 20 * Microsecond
	for _, kills := range []bool{false, true} {
		var want string
		for _, width := range []int{1, 2, 3, 7} {
			s, actors := buildChatter(width, 7, 5, horizon, kills)
			s.Drain()
			got := fingerprintChatter(s, actors)
			if width == 1 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("kills=%v width=%d diverges from width=1:\n got: %s\nwant: %s",
					kills, width, got, want)
			}
		}
	}
}

// TestShardedStepMatchesRun drives the identical system once with windowed
// Run and once with single-event Step, at width 4: the global (at, src, seq)
// pop order must produce the same traces either way, which is what lets the
// facade's interactive drivers (Step, drain-to-quiescence) mix freely with
// windowed runs.
func TestShardedStepMatchesRun(t *testing.T) {
	const horizon = 20 * Microsecond
	sRun, aRun := buildChatter(4, 7, 5, horizon, true)
	sRun.Drain()

	sStep, aStep := buildChatter(4, 7, 5, horizon, true)
	steps := 0
	for sStep.Step() {
		steps++
	}
	if got, want := fingerprintChatter(sStep, aStep), fingerprintChatter(sRun, aRun); got != want {
		t.Errorf("Step trace diverges from Run trace:\n got: %s\nwant: %s", got, want)
	}
	if uint64(steps) != sRun.DeliveredCount()+sRun.DroppedCount() {
		t.Errorf("Step count %d, Run delivered+dropped %d", steps, sRun.DeliveredCount()+sRun.DroppedCount())
	}
}

// TestShardedRunBoundary pins Run's until semantics: events at exactly until
// are processed, later ones are not, and a subsequent Run picks up where the
// first left off.
func TestShardedRunBoundary(t *testing.T) {
	s := NewSharded(2, 20*Microsecond)
	r := &recorder{}
	a := s.Register("a", r)
	s.Assign(a, 1)
	s.SendAt(10*Microsecond, a, "early")
	s.SendAt(50*Microsecond, a, "at-bound")
	s.SendAt(50*Microsecond+1, a, "late")
	if n := s.Run(50 * Microsecond); n != 2 {
		t.Fatalf("Run processed %d events, want 2", n)
	}
	if s.Empty() {
		t.Fatal("late event should remain queued")
	}
	if n := s.Drain(); n != 1 {
		t.Fatalf("Drain processed %d events, want 1", n)
	}
	want := []string{"early", "at-bound", "late"}
	for i, w := range want {
		if r.got[i].msg != w {
			t.Errorf("delivery %d = %v, want %v", i, r.got[i].msg, w)
		}
	}
}

// TestShardedStopAtBarrier verifies ctx.Stop halts a windowed run at a
// window boundary, the stop is resumable, and the stop point is
// width-independent.
func TestShardedStopAtBarrier(t *testing.T) {
	var want string
	for _, width := range []int{1, 2, 4} {
		s, actors := buildChatter(width, 4, 3, 20*Microsecond, false)
		stopper := s.Register("stopper", HandlerFunc(func(ctx *Context, m Message) {
			ctx.Stop()
		}))
		s.Assign(stopper, width-1)
		s.SendAt(100*Microsecond, stopper, "stop")
		s.Drain()
		if !s.Stopped() {
			t.Fatalf("width %d: not stopped", width)
		}
		mid := fingerprintChatter(s, actors)
		s.Resume()
		s.Drain()
		got := mid + "---\n" + fingerprintChatter(s, actors)
		if width == 1 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("width %d stop/resume diverges:\n got: %s\nwant: %s", width, got, want)
		}
	}
}

// TestShardedKillAtDropsDeliveries is TestKillDropsDeliveries across two
// shards: deliveries after the kill marker are dropped, earlier ones are
// not.
func TestShardedKillAtDropsDeliveries(t *testing.T) {
	s := NewSharded(2, 20*Microsecond)
	r := &recorder{}
	a := s.Register("victim", r)
	b := s.Register("witness", &recorder{})
	s.Assign(a, 0)
	s.Assign(b, 1)
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
	if s.Now() != 40*Microsecond {
		t.Errorf("Now = %v, want 40µs", s.Now())
	}
}

// TestShardedLookaheadPanics pins the loudness guarantee: a cross-shard send
// whose latency undercuts the horizon panics instead of silently reordering.
func TestShardedLookaheadPanics(t *testing.T) {
	s := NewSharded(2, 20*Microsecond)
	var peer ActorID
	a := s.Register("a", HandlerFunc(func(ctx *Context, m Message) {
		ctx.Send(peer, "too-fast", 5*Microsecond)
	}))
	peer = s.Register("b", &recorder{})
	s.Assign(a, 0)
	s.Assign(peer, 1)
	s.SendAt(0, a, "go")
	defer func() {
		if p := recover(); p == nil {
			t.Fatal("expected a lookahead panic")
		} else if !strings.Contains(fmt.Sprint(p), "lookahead") &&
			!strings.Contains(fmt.Sprint(p), "window bound") {
			t.Fatalf("unexpected panic: %v", p)
		}
	}()
	s.Drain()
}

// livePendingScan is the brute-force oracle for the cached Pending count: it
// walks every shard's heap and counts events destined for live actors.
func (s *ShardedScheduler) livePendingScan() int {
	n := 0
	for si := range s.shards {
		for i := range s.shards[si].h.ev {
			if !s.actors[s.shards[si].h.ev[i].to-1].dead {
				n++
			}
		}
	}
	return n
}

// TestPendingMatchesScan is the regression test for the cached pending
// count at width 1: under random traffic, single steps, partial runs, and
// kills, Pending always agrees with a brute-force heap scan.
func TestPendingMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := newWidth1()
	var ids []ActorID
	for i := 0; i < 6; i++ {
		i := i
		ids = append(ids, s.Register(fmt.Sprintf("a%d", i), HandlerFunc(func(ctx *Context, m Message) {
			// Fan out a little more traffic so pops and pushes interleave.
			if rng.Intn(3) == 0 {
				ctx.After(Time(rng.Intn(50))*Microsecond, "echo")
			}
		})))
	}
	check := func(step string) {
		t.Helper()
		if got, want := s.Pending(), s.livePendingScan(); got != want {
			t.Fatalf("%s: Pending = %d, scan = %d", step, got, want)
		}
	}
	for round := 0; round < 200; round++ {
		switch rng.Intn(5) {
		case 0, 1:
			s.SendAt(s.Now()+Time(rng.Intn(100))*Microsecond, ids[rng.Intn(len(ids))], round)
		case 2, 3:
			s.Step()
		case 4:
			if round > 100 && rng.Intn(10) == 0 {
				s.KillAt(s.Now(), ids[rng.Intn(len(ids))])
			} else {
				s.Run(s.Now() + 20*Microsecond)
			}
		}
		check(fmt.Sprintf("round %d", round))
	}
	s.Drain()
	check("after drain")
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", s.Pending())
	}
}

// TestShardedPendingMatchesScan runs the same regression on the sharded
// runtime, where Kill markers and barriers also mutate the counts.
func TestShardedPendingMatchesScan(t *testing.T) {
	s, _ := buildChatter(3, 6, 4, 20*Microsecond, true)
	check := func(step string) {
		t.Helper()
		if got, want := s.Pending(), s.livePendingScan(); got != want {
			t.Fatalf("%s: Pending = %d, scan = %d", step, got, want)
		}
	}
	for i := 0; i < 50 && !s.Empty(); i++ {
		s.Run(s.Now() + 10*Microsecond)
		check(fmt.Sprintf("run %d", i))
	}
	s.Drain()
	check("after drain")
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", s.Pending())
	}
}
