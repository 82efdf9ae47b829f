package replication

import (
	"fmt"

	"specdb/internal/core"
	"specdb/internal/costs"
	"specdb/internal/durable"
	"specdb/internal/metrics"
	"specdb/internal/msg"
	"specdb/internal/partition"
	"specdb/internal/sim"
	"specdb/internal/simnet"
	"specdb/internal/storage"
	"specdb/internal/txn"
)

// Takeover is the recovery state machine both ways a standby process becomes
// a partition's primary share: a backup promoting itself when its primary
// falls silent (Backup), and a restarter recovering a crashed durable
// partition from its command log (Restarter). Re-executing a primary's
// committed transactions in commit order is the same job whether they arrive
// as replica forwards or as log records, so one type owns it:
//
//   - replay into Store: apply a committed transaction, buffer a prepared one
//     (a re-send supersedes it, first-seen order kept), resolve it on a
//     decision;
//   - promotion: build the partition process around Store and ask the
//     coordinator for the buffered transactions' outcomes (RecoveryQuery);
//   - the promoted dispatch: new fragments wait until every old-world
//     transaction is resolved — by the RecoveryOutcome, by an old-world
//     decision, or by a Recovery-flagged one — and client recovery resends
//     are answered from the replayed replies instead of executing twice.
//
// The callers differ only in data: Peers (a backup's fellow replicas) and
// Log (a restarter's command log) say where a resolved outcome goes, and the
// constructor picks the timeline that records the resume.
type Takeover struct {
	Store    *storage.Store
	Registry *txn.Registry
	Costs    *costs.Model
	Net      *simnet.Net

	// Partition is the partition taken over; Coordinator receives the
	// RecoveryQuery.
	Partition   msg.PartitionID
	Coordinator sim.ActorID
	// Peers are the partition's other backups: the promoted primary's
	// backups, told of the promotion and of every resolved outcome (empty
	// for a restarter).
	Peers []sim.ActorID
	// Log is the partition's command log: the promoted primary's log, and
	// the record of every resolved outcome (nil for a backup).
	Log *durable.Logger
	// EngineFactory builds the concurrency control engine on promotion;
	// the facade keeps it current across adaptive scheme switches.
	EngineFactory func(env core.Env) core.Engine
	// Rec records the failover or restart timeline (may be nil in unit
	// tests).
	Rec *metrics.Collector
	// resumed notes the end of recovery on Rec's timeline.
	resumed func(rec *metrics.Collector, part int, at sim.Time, committed, dropped int)

	self sim.ActorID

	// buffered holds prepared multi-partition transactions awaiting their
	// decision; bufOrder preserves first-seen order for the recovery query.
	buffered map[msg.TxnID]prepared
	bufOrder []msg.TxnID

	// lastReply remembers, per client, the most recently applied committed
	// single-partition transaction and its reply. Clients are closed-loop
	// (at most one transaction outstanding), so one entry per client is
	// exactly the deduplication state a promoted primary needs.
	lastReply map[sim.ActorID]*msg.ClientReply

	// promoted is the partition process this standby becomes. resolved is
	// set once the RecoveryOutcome has arrived AND every buffered
	// transaction has been resolved; until then new fragments are stashed,
	// because applying a late old-world commit directly to the store
	// underneath an engine holding uncommitted undo state could let a later
	// rollback erase the committed write.
	promoted    *partition.Partition
	outcomeSeen bool
	resolved    bool
	stash       []*msg.Fragment
	// bufCommitted and bufDropped count buffered transactions resolved
	// during recovery (for the timeline).
	bufCommitted, bufDropped int

	// view is the reusable replay view (apply is synchronous).
	view storage.TxnView

	// Applied counts transactions applied to Store.
	Applied uint64
}

// prepared is one buffered transaction: the procedure and the fragment works
// to re-execute if it commits.
type prepared struct {
	proc  string
	works []any
}

func newTakeover(store *storage.Store, reg *txn.Registry, c *costs.Model, net *simnet.Net,
	resumed func(*metrics.Collector, int, sim.Time, int, int)) *Takeover {
	return &Takeover{
		Store:     store,
		Registry:  reg,
		Costs:     c,
		Net:       net,
		resumed:   resumed,
		buffered:  make(map[msg.TxnID]prepared),
		lastReply: make(map[sim.ActorID]*msg.ClientReply),
	}
}

// Bind sets the actor's own ID (after scheduler registration).
func (t *Takeover) Bind(self sim.ActorID) { t.self = self }

// Self returns the actor's ID.
func (t *Takeover) Self() sim.ActorID { return t.self }

// BufferedLen reports the number of buffered prepared-but-undecided
// transactions (tests: must be zero at quiescence).
func (t *Takeover) BufferedLen() int { return len(t.buffered) }

// Promoted returns the partition process this standby became, or nil while
// it has not taken over.
func (t *Takeover) Promoted() *partition.Partition { return t.promoted }

// Recovering reports whether a takeover is in flight: the standby is the
// primary, but old-world transactions are still being resolved (the
// coordinator's RecoveryOutcome, plus Recovery-flagged decisions for any
// buffered transaction that was still undecided at takeover).
func (t *Takeover) Recovering() bool { return t.promoted != nil && !t.resolved }

// commit applies a committed transaction and remembers its client reply.
func (t *Takeover) commit(ctx *sim.Context, id msg.TxnID, proc string, works []any, client sim.ActorID, reply *msg.ClientReply) {
	t.apply(ctx, id, proc, works)
	if reply != nil {
		t.lastReply[client] = reply
	}
}

// prepare buffers a prepared transaction until its decision. A re-send
// (speculative re-execution before the decision) supersedes the earlier one
// and keeps its place in the order.
func (t *Takeover) prepare(id msg.TxnID, proc string, works []any) {
	if _, seen := t.buffered[id]; !seen {
		t.bufOrder = append(t.bufOrder, id)
	}
	t.buffered[id] = prepared{proc: proc, works: works}
}

// decide resolves a buffered transaction, applying it on commit. It reports
// whether the transaction was buffered (one that aborted before preparing, or
// was never sent, has nothing to resolve).
func (t *Takeover) decide(ctx *sim.Context, id msg.TxnID, commit bool) bool {
	p, ok := t.buffered[id]
	if !ok {
		return false
	}
	delete(t.buffered, id)
	for i, b := range t.bufOrder {
		if b == id {
			t.bufOrder = append(t.bufOrder[:i], t.bufOrder[i+1:]...)
			break
		}
	}
	if commit {
		t.apply(ctx, id, p.proc, p.works)
	}
	return true
}

// apply re-executes a transaction's fragment works against Store. Replay is
// synchronous and deterministic (no locks, no undo — only decided commits
// replay), priced like replica apply; one reusable view serves every work.
func (t *Takeover) apply(ctx *sim.Context, id msg.TxnID, proc string, works []any) {
	t.Applied++
	if len(works) == 0 {
		return
	}
	pr := t.Registry.Get(proc)
	for _, w := range works {
		view := &t.view
		view.Reset(t.Store, nil, nil)
		if _, err := pr.Run(view, w); err != nil {
			panic(fmt.Sprintf("replication: transaction %d aborted on replay: %v", id, err))
		}
		ctx.Spend(t.Costs.ReplicaApply(proc, view.Reads+view.Writes, view.Writes))
	}
}

// promote makes this standby the partition's primary. Store already holds
// every committed transaction; the buffered prepared ones are resolved
// through the coordinator's decision log (RecoveryQuery → RecoveryOutcome).
// Peers become the new primary's backups and learn of the promotion first.
func (t *Takeover) promote(ctx *sim.Context) {
	inner := partition.New(partition.Config{
		ID:       t.Partition,
		Store:    t.Store,
		Registry: t.Registry,
		Costs:    t.Costs,
		Net:      t.Net,
		Backups:  append([]sim.ActorID(nil), t.Peers...),
		Logger:   t.Log,
		Rec:      t.Rec,
	})
	inner.Bind(t.self, t.EngineFactory)
	t.promoted = inner
	for _, p := range t.Peers {
		t.Net.Send(ctx, p, &msg.NewPrimary{Partition: t.Partition, Actor: t.self})
	}
	t.Net.Send(ctx, t.Coordinator, &msg.RecoveryQuery{
		Partition:  t.Partition,
		NewPrimary: t.self,
		Buffered:   append([]msg.TxnID(nil), t.bufOrder...),
	})
}

// receivePromoted dispatches messages after promotion: recovery traffic and
// old-world decisions are resolved against the buffered transactions; all
// normal partition traffic is delegated to the inner partition process.
func (t *Takeover) receivePromoted(ctx *sim.Context, m sim.Message) {
	switch v := m.(type) {
	case *msg.RecoveryOutcome:
		for _, o := range v.Outcomes {
			t.resolve(ctx, o.Txn, o.Commit)
		}
		t.outcomeSeen = true
		t.maybeResume(ctx)
	case *msg.Fragment:
		if !t.resolved {
			// Recovery still in flight: hold new work until every
			// buffered old-world transaction has been resolved, so their
			// writes land before anything new executes (and records undo)
			// on top of them.
			t.stash = append(t.stash, v)
			return
		}
		t.fragment(ctx, v)
	case *msg.Decision:
		if _, old := t.buffered[v.Txn]; old {
			// Old-world transaction decided after promotion: resolve the
			// buffered transaction; the inner engine never saw it.
			t.resolve(ctx, v.Txn, v.Commit)
			t.maybeResume(ctx)
			return
		}
		if v.Recovery {
			return // old-world transaction with no state here
		}
		t.promoted.Receive(ctx, m)
	case *msg.ReplicaForward, *msg.ReplicaDecision, *msg.Heartbeat,
		msg.StartMonitor, msg.StartPulse, msg.StopPulse, checkTick, pulseTick, *msg.NewPrimary,
		*msg.ReplicaMigrateOut, *msg.ReplicaMigrateIn:
		// A backup's stale pre-crash traffic or detector machinery;
		// promotion is final and the old primary is dead. (Migration
		// forwards reach a promoted backup as MigrateOut/MigrateIn via the
		// default case — replica-directed copies could only come from the
		// dead primary.)
	default:
		// Everything else — engine timers, peer acks, disk completions,
		// group-commit flush ticks — belongs to the inner partition.
		t.promoted.Receive(ctx, m)
	}
}

// fragment delivers a fragment to the inner partition, deduplicating client
// recovery resends: if the client's last applied committed transaction is
// the one being resent, the stored reply is returned instead of executing
// the transaction a second time.
func (t *Takeover) fragment(ctx *sim.Context, f *msg.Fragment) {
	if lr := t.lastReply[f.Client]; lr != nil && lr.Txn == f.Txn {
		t.Net.Send(ctx, f.Client, lr)
		return
	}
	t.promoted.Receive(ctx, f)
}

// maybeResume opens the promoted primary for business once the recovery
// outcome has arrived and no buffered transaction remains (transactions
// still pending at the coordinator resolve through Recovery-flagged
// decisions; holding new work until then keeps old-world commits strictly
// before new-world execution). Stashed fragments replay in arrival order.
func (t *Takeover) maybeResume(ctx *sim.Context) {
	if t.resolved || !t.outcomeSeen || len(t.buffered) > 0 {
		return
	}
	t.resolved = true
	if t.Rec != nil {
		t.resumed(t.Rec, int(t.Partition), ctx.Now(), t.bufCommitted, t.bufDropped)
	}
	stash := t.stash
	t.stash = nil
	for _, f := range stash {
		t.fragment(ctx, f)
	}
}

// resolve applies or drops one buffered transaction during recovery and
// passes the outcome on: to the peer backups, whose buffers mirror this one,
// and to the command log, re-creating the decision record the crash lost.
func (t *Takeover) resolve(ctx *sim.Context, id msg.TxnID, commit bool) {
	if !t.decide(ctx, id, commit) {
		return
	}
	if commit {
		t.bufCommitted++
	} else {
		t.bufDropped++
	}
	for _, p := range t.Peers {
		t.Net.Send(ctx, p, &msg.ReplicaDecision{Txn: id, Commit: commit})
	}
	if t.Log != nil {
		t.Log.AppendDecision(ctx, id, commit)
	}
}
