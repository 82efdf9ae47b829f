// Package replication implements the backup processes of §3.2/§4.3 and the
// failover that makes the k-safety machinery worth having. H-Store uses
// k-replication instead of disk for durability: a transaction commits once k
// replicas have received it. Backups re-execute forwarded transactions
// sequentially, in the order the primary committed them, without locks or
// undo buffers — any data from remote partitions is baked into the forwarded
// work, so backups never participate in distributed transactions.
//
// When fault injection is enabled, a backup also runs a timeout-based
// failure detector over its primary's heartbeats. On detecting a crash, it
// promotes itself: it already holds all committed state plus the
// prepared-but-undecided buffer, so it builds a fresh partition process
// around its own store, asks the coordinator for the outcomes of the
// buffered transactions (and, implicitly, for in-flight transactions
// touching the dead partition to be resolved), and takes over as primary —
// deduplicating client recovery resends so no transaction commits twice.
// See docs/ARCHITECTURE.md "Failures and recovery".
package replication

import (
	"fmt"

	"specdb/internal/costs"
	"specdb/internal/metrics"
	"specdb/internal/msg"
	"specdb/internal/sim"
	"specdb/internal/simnet"
	"specdb/internal/storage"
	"specdb/internal/txn"
)

// pulseTick and checkTick drive the backup's heartbeat loop (backup-crash
// detection by the primary) and its failure detector over the primary.
type (
	pulseTick struct{}
	checkTick struct{}
)

// Backup is one backup replica of a partition. Its Takeover replays the
// primary's forwards and, after promotion, runs the partition.
type Backup struct {
	*Takeover
	Primary sim.ActorID

	// Failover wiring (set by the facade when fault injection is enabled).
	// Replica is this backup's 1-based rank, which staggers the detection
	// timeout so exactly one surviving backup promotes.
	Replica int
	// Heartbeat and Timeout parameterize the failure detector.
	Heartbeat sim.Time
	Timeout   sim.Time

	// Failure detection state.
	pulsing    bool
	monitoring bool
	lastHeard  sim.Time
}

// New builds a backup.
func New(store *storage.Store, reg *txn.Registry, c *costs.Model, net *simnet.Net) *Backup {
	return &Backup{Takeover: newTakeover(store, reg, c, net, (*metrics.Collector).NotePromoted)}
}

// Receive handles primary traffic, failure detection, and — after promotion
// — everything a partition primary handles.
func (b *Backup) Receive(ctx *sim.Context, m sim.Message) {
	if b.promoted != nil {
		b.receivePromoted(ctx, m)
		return
	}
	switch v := m.(type) {
	case *msg.ReplicaForward:
		if v.Committed {
			b.commit(ctx, v.Txn, v.Proc, v.Works, v.Client, v.Reply)
		} else {
			b.prepare(v.Txn, v.Proc, v.Works)
		}
		b.Net.Send(ctx, b.Primary, &msg.ReplicaAck{Txn: v.Txn, From: ctx.Self(), Seq: v.Seq})
	case *msg.ReplicaDecision:
		b.decide(ctx, v.Txn, v.Commit)
	case *msg.Heartbeat:
		b.lastHeard = ctx.Now()
	case msg.StartMonitor:
		if !b.monitoring {
			b.monitoring = true
			b.lastHeard = ctx.Now()
			ctx.After(b.staggeredTimeout(), checkTick{})
		}
	case checkTick:
		b.check(ctx)
	case msg.StartPulse:
		if !b.pulsing {
			b.pulsing = true
			b.pulse(ctx)
		}
	case pulseTick:
		b.pulse(ctx)
	case msg.StopPulse:
		b.pulsing = false
	case *msg.NewPrimary:
		// A lower-ranked peer promoted first: re-target acknowledgments
		// and stand down this backup's own failure detector.
		b.Primary = v.Actor
		b.monitoring = false
	case *msg.ReplicaMigrateOut:
		// The primary surrendered a key range at a drained quiescent point.
		// The FIFO link guarantees every decision for a transaction that
		// committed before the migration has already been delivered, so no
		// buffered transaction can touch the departing rows.
		b.Store.CutRange(v.Lo, v.Hi)
	case *msg.ReplicaMigrateIn:
		b.Store.InstallRows(v.Rows)
	default:
		panic(fmt.Sprintf("backup: unexpected message %T", m))
	}
}

// staggeredTimeout widens the detection timeout by replica rank so that the
// lowest-ranked surviving backup always declares the crash first and
// higher-ranked peers learn of its promotion before their own timers fire.
func (b *Backup) staggeredTimeout() sim.Time {
	return b.Timeout * sim.Time(b.Replica)
}

// pulse heartbeats the primary (backup-crash detection) and re-arms.
func (b *Backup) pulse(ctx *sim.Context) {
	if !b.pulsing {
		return
	}
	b.Net.Send(ctx, b.Primary, &msg.Heartbeat{Partition: b.Partition, From: ctx.Self()})
	ctx.After(b.Heartbeat, pulseTick{})
}

// check is the failure detector: if the primary has been silent past the
// (rank-staggered) timeout, promote; otherwise re-arm for the next deadline.
func (b *Backup) check(ctx *sim.Context) {
	if !b.monitoring {
		return
	}
	deadline := b.lastHeard + b.staggeredTimeout()
	if ctx.Now() < deadline {
		ctx.After(deadline-ctx.Now(), checkTick{})
		return
	}
	b.monitoring = false
	if b.Rec != nil {
		b.Rec.NoteDetected(int(b.Partition), metrics.RolePrimary, 0, ctx.Now())
	}
	b.promote(ctx)
}
