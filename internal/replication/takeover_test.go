package replication

import (
	"fmt"
	"strings"
	"testing"

	"specdb/internal/core"
	"specdb/internal/costs"
	"specdb/internal/durable"
	"specdb/internal/msg"
	"specdb/internal/partition"
	"specdb/internal/sim"
	"specdb/internal/simnet"
	"specdb/internal/storage"
	"specdb/internal/txn"
)

// The takeover tests drive both ways a standby process becomes a
// partition's primary — a backup whose failure detector fires on a silent
// primary, and a restarter told to recover from its command log — through
// the same recovery protocol cases. Each way in starts from the same
// pre-crash history: transaction 1 committed (single-partition, on key x,
// replied to the client), transactions 2 (key y) and 3 (key z) prepared but
// undecided.

// sink records every message it receives.
type sink struct{ got []sim.Message }

func (s *sink) Receive(ctx *sim.Context, m sim.Message) { s.got = append(s.got, m) }

// replies returns the client replies the sink received.
func (s *sink) replies() []*msg.ClientReply {
	var out []*msg.ClientReply
	for _, m := range s.got {
		if r, ok := m.(*msg.ClientReply); ok {
			out = append(out, r)
		}
	}
	return out
}

// ackingPeer stands in for a surviving peer backup: it records everything
// and acknowledges forwards from the new primary.
type ackingPeer struct {
	sink
	primary sim.ActorID
}

func (p *ackingPeer) Receive(ctx *sim.Context, m sim.Message) {
	p.sink.Receive(ctx, m)
	if fw, ok := m.(*msg.ReplicaForward); ok {
		ctx.Send(p.primary, &msg.ReplicaAck{Txn: fw.Txn, From: ctx.Self(), Seq: fw.Seq}, 0)
	}
}

// logWriter owns a command log before the crash: it runs appends inside a
// delivery and processes the disk completions, so the records become
// durable.
type logWriter struct{ log *durable.Logger }

type appendCmd func(ctx *sim.Context)

func (w *logWriter) Receive(ctx *sim.Context, m sim.Message) {
	switch v := m.(type) {
	case appendCmd:
		v(ctx)
	case *durable.WriteDone:
		w.log.Durable(v.Seq)
	case durable.FlushTick:
		w.log.Flush(ctx, v.Batch)
	}
}

// takeoverRig is one standby actor, its surroundings, and the pre-crash
// history loaded into it.
type takeoverRig struct {
	s        *sim.ShardedScheduler
	id       sim.ActorID
	coord    *sink
	client   *sink
	clientID sim.ActorID
	// reply1 is the reply transaction 1's client received before the crash.
	reply1 *msg.ClientReply
	// takeOver makes the standby the primary and runs until it has sent
	// its recovery query.
	takeOver   func()
	recovering func() bool
	promoted   func() *partition.Partition
	// relayed lists the resolved outcomes the standby passed on: decisions
	// sent to peer backups, or decision records appended to the log.
	relayed func() []msg.TxnOutcome
}

func takeoverEnv() (*sim.ShardedScheduler, *txn.Registry, *costs.Model, *simnet.Net) {
	reg := txn.NewRegistry()
	reg.Register(incProc{})
	cm := costs.Default()
	return sim.NewSharded(1, sim.Microsecond), reg, &cm, simnet.New(cm.OneWayLatency)
}

func blockingEngine(env core.Env) core.Engine { return core.NewBlocking(env) }

func newTable() *storage.Store {
	store := storage.NewStore()
	store.AddTable(storage.NewHashTable("t"))
	return store
}

// backupRig loads the history as primary forwards, then lets the backup's
// failure detector promote it.
func backupRig(t *testing.T) *takeoverRig {
	t.Helper()
	s, reg, cm, net := takeoverEnv()
	r := &takeoverRig{s: s, coord: &sink{}, client: &sink{}}
	peer := &ackingPeer{}
	primaryID := s.Register("primary", &sink{})
	coordID := s.Register("coordinator", r.coord)
	r.clientID = s.Register("client", r.client)
	peerID := s.Register("peer", peer)
	b := New(newTable(), reg, cm, net)
	b.Primary = primaryID
	b.Replica = 1
	b.Heartbeat = sim.Millisecond
	b.Timeout = sim.Millisecond
	b.Coordinator = coordID
	b.Peers = []sim.ActorID{peerID}
	b.EngineFactory = blockingEngine
	r.id = s.Register("backup", b)
	b.Bind(r.id)
	peer.primary = r.id

	r.reply1 = &msg.ClientReply{Txn: 1, Output: int64(1), Committed: true}
	s.SendAt(0, r.id, &msg.ReplicaForward{Txn: 1, Proc: "inc", Works: []any{"x"}, Committed: true, Seq: 1, Client: r.clientID, Reply: r.reply1})
	s.SendAt(0, r.id, &msg.ReplicaForward{Txn: 2, Proc: "inc", Works: []any{"y"}, Seq: 2})
	s.SendAt(0, r.id, &msg.ReplicaForward{Txn: 3, Proc: "inc", Works: []any{"z"}, Seq: 3})
	s.Drain()

	r.takeOver = func() {
		s.SendAt(s.Now(), r.id, msg.StartMonitor{})
		s.Drain()
	}
	r.recovering = b.Recovering
	r.promoted = b.Promoted
	r.relayed = func() []msg.TxnOutcome {
		var out []msg.TxnOutcome
		for _, m := range peer.got {
			if d, ok := m.(*msg.ReplicaDecision); ok {
				out = append(out, msg.TxnOutcome{Txn: d.Txn, Commit: d.Commit})
			}
		}
		return out
	}
	return r
}

// restarterRig loads the history as durable command-log records, then
// orders the restart.
func restarterRig(t *testing.T) *takeoverRig {
	t.Helper()
	s, reg, cm, net := takeoverEnv()
	r := &takeoverRig{s: s, coord: &sink{}, client: &sink{}}
	cfg := durable.Config{GroupCommitBytes: 1, GroupCommitDelay: sim.Microsecond, DiskLatency: 10 * sim.Microsecond}
	diskID := s.Register("disk", &durable.Disk{Latency: cfg.DiskLatency})
	w := &logWriter{log: durable.NewLogger(cfg, diskID)}
	writerID := s.Register("writer", w)
	w.log.Bind(writerID)
	w.log.InstallInitial(newTable())
	coordID := s.Register("coordinator", r.coord)
	r.clientID = s.Register("client", r.client)
	rs := NewRestarter(w.log, reg, cm, net)
	rs.Coordinator = coordID
	rs.EngineFactory = blockingEngine
	r.id = s.Register("restarter", rs)
	rs.Bind(r.id)

	r.reply1 = &msg.ClientReply{Txn: 1, Output: int64(1), Committed: true}
	s.SendAt(0, writerID, appendCmd(func(ctx *sim.Context) {
		w.log.AppendCommitted(ctx, 1, "inc", []any{"x"}, r.clientID, r.reply1)
		w.log.AppendPrepared(ctx, 2, "inc", []any{"y"})
		w.log.AppendPrepared(ctx, 3, "inc", []any{"z"})
	}))
	s.Drain()

	r.takeOver = func() {
		s.SendAt(s.Now(), r.id, msg.Restart{})
		s.Drain()
	}
	r.recovering = rs.Recovering
	r.promoted = rs.Promoted
	r.relayed = func() []msg.TxnOutcome {
		var out []msg.TxnOutcome
		for _, line := range strings.Split(string(w.log.Image()), "\n") {
			var id msg.TxnID
			var c int
			if _, err := fmt.Sscanf(line, "D t=%d c=%d", &id, &c); err == nil {
				out = append(out, msg.TxnOutcome{Txn: id, Commit: c == 1})
			}
		}
		return out
	}
	return r
}

func (r *takeoverRig) send(m sim.Message) {
	r.s.SendAt(r.s.Now(), r.id, m)
	r.s.Drain()
}

func (r *takeoverRig) get(k string) int64 {
	v, ok := r.promoted().Store().Table("t").Get(k)
	if !ok {
		return 0
	}
	return v.(int64)
}

// fragment is a new single-partition transaction from the rig's client.
func (r *takeoverRig) fragment(id msg.TxnID, key string) *msg.Fragment {
	return &msg.Fragment{Txn: id, Proc: "inc", Last: true, Work: key, Coord: r.clientID, Client: r.clientID}
}

func TestTakeover(t *testing.T) {
	ways := []struct {
		name string
		rig  func(t *testing.T) *takeoverRig
	}{
		{"heartbeat-timeout", backupRig},
		{"restart", restarterRig},
	}
	cases := []struct {
		name string
		run  func(t *testing.T, r *takeoverRig)
	}{
		{"query-lists-buffer-in-order", func(t *testing.T, r *takeoverRig) {
			r.takeOver()
			if len(r.coord.got) != 1 {
				t.Fatalf("coordinator got %d messages, want one recovery query", len(r.coord.got))
			}
			q, ok := r.coord.got[0].(*msg.RecoveryQuery)
			if !ok || q.NewPrimary != r.id || fmt.Sprint(q.Buffered) != "[2 3]" {
				t.Fatalf("recovery query = %+v", r.coord.got[0])
			}
			if r.get("x") != 1 || r.get("y") != 0 || r.get("z") != 0 {
				t.Fatalf("x=%d y=%d z=%d before resolution", r.get("x"), r.get("y"), r.get("z"))
			}
		}},
		{"fragments-stashed-until-resolved", func(t *testing.T, r *takeoverRig) {
			r.takeOver()
			r.send(r.fragment(10, "w"))
			if len(r.client.replies()) != 0 || r.get("w") != 0 {
				t.Fatal("new fragment ran before the recovery outcome")
			}
			// Transaction 3 is still undecided at the coordinator.
			r.send(&msg.RecoveryOutcome{Outcomes: []msg.TxnOutcome{{Txn: 2, Commit: true}}})
			if len(r.client.replies()) != 0 || r.get("w") != 0 {
				t.Fatal("new fragment ran while the buffer still held a transaction")
			}
			if r.get("y") != 1 {
				t.Fatalf("y = %d after recovered commit", r.get("y"))
			}
			r.send(&msg.Decision{Txn: 3, Commit: false, Recovery: true})
			if r.get("w") != 1 || r.get("z") != 0 {
				t.Fatalf("w=%d z=%d after resume", r.get("w"), r.get("z"))
			}
			if rs := r.client.replies(); len(rs) != 1 || rs[0].Txn != 10 || !rs[0].Committed {
				t.Fatalf("client replies = %+v", rs)
			}
		}},
		{"old-world-decision-resolves-buffer", func(t *testing.T, r *takeoverRig) {
			r.takeOver()
			r.send(&msg.RecoveryOutcome{})
			r.send(&msg.Decision{Txn: 2, Commit: true})
			r.send(&msg.Decision{Txn: 3, Commit: true, Recovery: true})
			if r.get("y") != 1 || r.get("z") != 1 {
				t.Fatalf("y=%d z=%d after old-world commits", r.get("y"), r.get("z"))
			}
			if r.recovering() {
				t.Fatal("still recovering with an empty buffer")
			}
			if n := r.promoted().DecisionsIn; n != 0 {
				t.Fatalf("inner partition saw %d old-world decisions", n)
			}
		}},
		{"unknown-recovery-decision-ignored", func(t *testing.T, r *takeoverRig) {
			r.takeOver()
			r.send(&msg.RecoveryOutcome{Outcomes: []msg.TxnOutcome{{Txn: 2, Commit: true}, {Txn: 3, Commit: false}}})
			r.send(&msg.Decision{Txn: 99, Commit: true, Recovery: true})
			if n := r.promoted().DecisionsIn; n != 0 {
				t.Fatalf("inner partition saw %d decisions", n)
			}
			if len(r.client.got) != 0 {
				t.Fatalf("client got %+v", r.client.got)
			}
		}},
		{"resend-gets-stored-reply", func(t *testing.T, r *takeoverRig) {
			r.takeOver()
			r.send(&msg.RecoveryOutcome{Outcomes: []msg.TxnOutcome{{Txn: 2, Commit: true}, {Txn: 3, Commit: false}}})
			r.send(r.fragment(1, "x"))
			if rs := r.client.replies(); len(rs) != 1 || rs[0] != r.reply1 {
				t.Fatalf("client replies = %+v, want the stored reply", rs)
			}
			if r.get("x") != 1 || r.promoted().FragmentsIn != 0 {
				t.Fatalf("resend executed again: x=%d fragments=%d", r.get("x"), r.promoted().FragmentsIn)
			}
		}},
		{"recovering-on-then-off", func(t *testing.T, r *takeoverRig) {
			if r.recovering() || r.promoted() != nil {
				t.Fatal("recovering before the takeover")
			}
			r.takeOver()
			if !r.recovering() || r.promoted() == nil {
				t.Fatal("not recovering after the takeover")
			}
			r.send(&msg.RecoveryOutcome{Outcomes: []msg.TxnOutcome{{Txn: 2, Commit: true}, {Txn: 3, Commit: false}}})
			if r.recovering() {
				t.Fatal("still recovering after every buffered transaction resolved")
			}
		}},
		{"resolved-outcomes-passed-on", func(t *testing.T, r *takeoverRig) {
			r.takeOver()
			if got := r.relayed(); len(got) != 0 {
				t.Fatalf("outcomes passed on before resolution: %+v", got)
			}
			r.send(&msg.RecoveryOutcome{Outcomes: []msg.TxnOutcome{{Txn: 2, Commit: true}}})
			r.send(&msg.Decision{Txn: 3, Commit: false, Recovery: true})
			if got := fmt.Sprint(r.relayed()); got != "[{2 true} {3 false}]" {
				t.Fatalf("outcomes passed on = %s", got)
			}
		}},
	}
	for _, w := range ways {
		for _, c := range cases {
			t.Run(w.name+"/"+c.name, func(t *testing.T) {
				c.run(t, w.rig(t))
			})
		}
	}
}
