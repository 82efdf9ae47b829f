// Package sim provides a deterministic discrete-event simulation kernel.
//
// The paper's testbed is six servers on a gigabit switch; here every process
// (partition primary, backup, central coordinator, client) is an actor driven
// by a single event loop over virtual time. Each actor models a
// single-threaded CPU: an event delivered at time T to an actor that is busy
// until B begins service at max(T, B), and the handler charges CPU time with
// Context.Spend. Queueing and saturation (e.g. of the central coordinator in
// Figure 4 of the paper) emerge from this busy-until semantics.
//
// Determinism: events are ordered by (deliver time, sender, sender's own
// send sequence), and all randomness used by actors must come from seeded
// sources, so a run is a pure function of its configuration. The one event
// kernel is ShardedScheduler: width 1 runs every actor on the calling
// goroutine, wider runs fan partition groups out over worker goroutines
// with the identical result (see shard.go).
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds.
type Time int64

// Common durations, usable as both durations and time scales.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Micros returns t as a floating point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	return fmt.Sprintf("%.3fµs", t.Micros())
}

// ActorID identifies a registered actor.
type ActorID int32

// NoActor is the zero ActorID; valid actors are numbered from 1.
const NoActor ActorID = 0

// Message is any value delivered to an actor.
type Message any

// Handler is implemented by every actor.
type Handler interface {
	// Receive processes one message. It may consume virtual CPU time via
	// ctx.Spend and send messages via ctx.Send; it must not retain ctx.
	Receive(ctx *Context, m Message)
}

// Context is passed to Handler.Receive. It is owned by the scheduler and
// reused between deliveries; handlers must not retain it.
type Context struct {
	s     *ShardedScheduler
	si    int // the shard delivering the current event
	self  ActorID
	local Time
}

// Self returns the ID of the actor handling the current message.
func (c *Context) Self() ActorID { return c.self }

// Now returns the actor's local virtual time: service start plus any time
// already consumed with Spend during this delivery.
func (c *Context) Now() Time { return c.local }

// Spend charges d of CPU time to the current actor, advancing its local
// clock. Subsequent sends depart after the charged time.
func (c *Context) Spend(d Time) {
	if d < 0 {
		panic("sim: negative Spend")
	}
	c.local += d
}

// Send delivers msg to the destination actor after the given latency,
// measured from the current local time.
func (c *Context) Send(to ActorID, msg Message, latency Time) {
	if latency < 0 {
		panic("sim: negative latency")
	}
	c.s.send(c.si, c.self, c.local+latency, to, msg)
}

// After schedules msg to be delivered back to the current actor after d.
// It is the timer primitive (e.g. distributed deadlock timeouts).
func (c *Context) After(d Time, msg Message) {
	c.s.send(c.si, c.self, c.local+d, c.self, msg)
}

// SendAt schedules msg for delivery at an absolute virtual time, for actors
// that pace themselves against the global clock (open-loop arrival ticks)
// rather than relative latencies. Times in the past are clamped to now.
func (c *Context) SendAt(at Time, to ActorID, msg Message) {
	c.s.send(c.si, c.self, at, to, msg)
}

// Stop raises the runtime's sticky halt flag from inside a handler. The stop
// takes effect at the next window barrier at every width, so the stop point
// is width-independent (ShardedScheduler.Stop, the scheduler-level call,
// halts a width-1 run sooner).
func (c *Context) Stop() { c.s.stopReq.Store(true) }
