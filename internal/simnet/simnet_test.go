package simnet

import (
	"testing"

	"specdb/internal/sim"
)

type recorder struct {
	at []sim.Time
}

func (r *recorder) Receive(ctx *sim.Context, m sim.Message) {
	r.at = append(r.at, ctx.Now())
}

type sender struct {
	net *Net
	to  sim.ActorID
}

func (s *sender) Receive(ctx *sim.Context, m sim.Message) {
	ctx.Spend(5 * sim.Microsecond)
	s.net.Send(ctx, s.to, "hi")
}

func TestSendAddsLatencyAfterLocalWork(t *testing.T) {
	s := sim.NewSharded(1, sim.Microsecond)
	n := New(20 * sim.Microsecond)
	r := &recorder{}
	rid := s.Register("dst", r)
	snd := &sender{net: n, to: rid}
	sid := s.Register("src", snd)
	s.SendAt(0, sid, "go")
	s.Drain()
	// Delivery = 5µs local spend + 20µs wire.
	if len(r.at) != 1 || r.at[0] != 25*sim.Microsecond {
		t.Fatalf("delivered at %v", r.at)
	}
	if n.Sent() != 1 {
		t.Fatalf("sent = %d", n.Sent())
	}
	if n.OneWay() != 20*sim.Microsecond {
		t.Fatalf("OneWay = %v", n.OneWay())
	}
}

// TestFIFOPerLink: constant latency plus deterministic tie-breaking keeps
// every link FIFO, which the central coordinator's global ordering relies on.
func TestFIFOPerLink(t *testing.T) {
	s := sim.NewSharded(1, sim.Microsecond)
	n := New(20 * sim.Microsecond)
	var order []int
	dst := s.Register("dst", handlerFunc(func(ctx *sim.Context, m sim.Message) {
		order = append(order, m.(int))
	}))
	src := s.Register("src", handlerFunc(func(ctx *sim.Context, m sim.Message) {
		for i := 0; i < 10; i++ {
			n.Send(ctx, dst, i)
		}
	}))
	s.SendAt(0, src, "go")
	s.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("link reordered: %v", order)
		}
	}
}

type handlerFunc func(*sim.Context, sim.Message)

func (f handlerFunc) Receive(ctx *sim.Context, m sim.Message) { f(ctx, m) }
