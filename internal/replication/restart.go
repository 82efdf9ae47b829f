package replication

import (
	"fmt"

	"specdb/internal/costs"
	"specdb/internal/durable"
	"specdb/internal/metrics"
	"specdb/internal/msg"
	"specdb/internal/sim"
	"specdb/internal/simnet"
	"specdb/internal/txn"
)

// Restarter is the crash-restart actor for a durable, unreplicated partition:
// the "process supervisor re-launching the database" half of crash-restart
// faults. It idles until the fault controller's msg.Restart, then recovers the
// partition from disk — load the latest checkpoint, replay the durable command-
// log tail in commit order through the same Takeover calls a backup uses for
// its primary's forwards — and takes over as primary exactly as a promoted
// backup does. Resolved outcomes go to the log (Takeover.Log) instead of to
// peer backups.
type Restarter struct {
	*Takeover
}

// NewRestarter builds a restarter for one partition's command log.
func NewRestarter(log *durable.Logger, reg *txn.Registry, c *costs.Model, net *simnet.Net) *Restarter {
	t := newTakeover(nil, reg, c, net, (*metrics.Collector).NoteRestartResumed)
	t.Log = log
	return &Restarter{Takeover: t}
}

// Receive idles until the restart order, then behaves like a promoted backup.
func (r *Restarter) Receive(ctx *sim.Context, m sim.Message) {
	if r.promoted != nil {
		r.receivePromoted(ctx, m)
		return
	}
	if _, ok := m.(msg.Restart); !ok {
		panic(fmt.Sprintf("restarter: unexpected message %T before restart", m))
	}
	r.restart(ctx)
}

// restart performs crash recovery: pay the disk read for the checkpoint
// image, adopt its snapshot, replay the durable log tail in commit order,
// then reattach the log and promote.
func (r *Restarter) restart(ctx *sim.Context) {
	began := ctx.Now()
	ck := r.Log.Latest()
	ctx.Spend(r.Log.ReadCost(ck.Bytes))
	r.Store = ck.Store
	var logBytes uint64
	tail := r.Log.Tail()
	for i := range tail {
		rec := &tail[i]
		logBytes += uint64(rec.Size)
		switch rec.Kind {
		case durable.RecordCommitted:
			r.commit(ctx, rec.Txn, rec.Proc, rec.Works, rec.Client, rec.Reply)
		case durable.RecordPrepared:
			r.prepare(rec.Txn, rec.Proc, rec.Works)
		case durable.RecordDecision:
			r.decide(ctx, rec.Txn, rec.Commit)
		case durable.RecordMigration:
			// Elastic repartitioning step, appended at a drained quiescent
			// point: no transaction to re-execute, the store mutates
			// directly. Replaying it restores the post-migration key
			// placement, so re-executed later transactions find (or miss)
			// exactly the rows the original run did.
			if rec.MigOut {
				r.Store.CutRange(rec.MigLo, rec.MigHi)
			} else {
				r.Store.InstallRows(rec.MigRows)
			}
		}
	}
	ctx.Spend(r.Log.ReadCost(logBytes))
	r.Log.Reattach(r.self)
	if r.Rec != nil {
		r.Rec.NoteRestartBegun(int(r.Partition), began, ck.Bytes, logBytes, int(r.Applied))
	}
	r.promote(ctx)
}
