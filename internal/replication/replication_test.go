package replication

import (
	"testing"

	"specdb/internal/costs"
	"specdb/internal/msg"
	"specdb/internal/sim"
	"specdb/internal/simnet"
	"specdb/internal/storage"
	"specdb/internal/txn"
)

// incProc increments the key given as work.
type incProc struct{}

func (incProc) Name() string { return "inc" }
func (incProc) Plan(args any, cat *txn.Catalog) txn.Plan {
	panic("unused")
}
func (incProc) Continue(args any, round int, prior []msg.FragmentResult, cat *txn.Catalog) map[msg.PartitionID]any {
	panic("unused")
}
func (incProc) Run(view *storage.TxnView, w any) (any, error) {
	k := w.(string)
	v, _ := view.GetForUpdate("t", k)
	n := int64(0)
	if v != nil {
		n = v.(int64)
	}
	view.Put("t", k, n+1)
	return n + 1, nil
}
func (incProc) Output(args any, final []msg.FragmentResult) any { return nil }

type primaryStub struct{ acks []*msg.ReplicaAck }

func (p *primaryStub) Receive(ctx *sim.Context, m sim.Message) {
	if a, ok := m.(*msg.ReplicaAck); ok {
		p.acks = append(p.acks, a)
	}
}

type fixture struct {
	s       *sim.ShardedScheduler
	b       *Backup
	bID     sim.ActorID
	primary *primaryStub
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{s: sim.NewSharded(1, sim.Microsecond)}
	reg := txn.NewRegistry()
	reg.Register(incProc{})
	store := storage.NewStore()
	store.AddTable(storage.NewHashTable("t"))
	cm := costs.Default()
	f.b = New(store, reg, &cm, simnet.New(cm.OneWayLatency))
	f.primary = &primaryStub{}
	pid := f.s.Register("primary", f.primary)
	f.b.Primary = pid
	f.bID = f.s.Register("backup", f.b)
	f.b.Bind(f.bID)
	return f
}

func (f *fixture) get(k string) int64 {
	v, ok := f.b.Store.Table("t").Get(k)
	if !ok {
		return 0
	}
	return v.(int64)
}

func TestCommittedForwardAppliesImmediately(t *testing.T) {
	f := newFixture(t)
	f.s.SendAt(0, f.bID, &msg.ReplicaForward{
		Txn: 1, Proc: "inc", Works: []any{"x", "x"}, Committed: true, Seq: 1,
	})
	f.s.Drain()
	if f.get("x") != 2 {
		t.Fatalf("x = %d", f.get("x"))
	}
	if len(f.primary.acks) != 1 || f.primary.acks[0].Seq != 1 {
		t.Fatalf("acks = %+v", f.primary.acks)
	}
	if f.b.Applied != 1 {
		t.Fatalf("applied = %d", f.b.Applied)
	}
}

func TestPreparedForwardWaitsForDecision(t *testing.T) {
	f := newFixture(t)
	f.s.SendAt(0, f.bID, &msg.ReplicaForward{
		Txn: 2, Proc: "inc", Works: []any{"y"}, Seq: 1,
	})
	f.s.Drain()
	if f.get("y") != 0 {
		t.Fatal("prepared transaction applied before decision")
	}
	if len(f.primary.acks) != 1 {
		t.Fatal("prepare not acked")
	}
	f.s.SendAt(f.s.Now(), f.bID, &msg.ReplicaDecision{Txn: 2, Commit: true})
	f.s.Drain()
	if f.get("y") != 1 {
		t.Fatalf("y = %d after commit", f.get("y"))
	}
}

func TestAbortDecisionDropsBuffer(t *testing.T) {
	f := newFixture(t)
	f.s.SendAt(0, f.bID, &msg.ReplicaForward{Txn: 3, Proc: "inc", Works: []any{"z"}, Seq: 1})
	f.s.SendAt(1, f.bID, &msg.ReplicaDecision{Txn: 3, Commit: false})
	f.s.Drain()
	if f.get("z") != 0 {
		t.Fatal("aborted transaction applied")
	}
	// A later decision for the same id is a no-op.
	f.s.SendAt(f.s.Now(), f.bID, &msg.ReplicaDecision{Txn: 3, Commit: true})
	f.s.Drain()
	if f.get("z") != 0 {
		t.Fatal("dropped buffer resurrected")
	}
}

func TestReforwardSupersedes(t *testing.T) {
	f := newFixture(t)
	// First speculative execution forwarded, then superseded after a
	// cascade re-execution with different work.
	f.s.SendAt(0, f.bID, &msg.ReplicaForward{Txn: 4, Proc: "inc", Works: []any{"a"}, Seq: 1})
	f.s.SendAt(1, f.bID, &msg.ReplicaForward{Txn: 4, Proc: "inc", Works: []any{"b"}, Seq: 2})
	f.s.SendAt(2, f.bID, &msg.ReplicaDecision{Txn: 4, Commit: true})
	f.s.Drain()
	if f.get("a") != 0 || f.get("b") != 1 {
		t.Fatalf("a=%d b=%d; the re-forward must win", f.get("a"), f.get("b"))
	}
	if len(f.primary.acks) != 2 {
		t.Fatalf("acks = %d", len(f.primary.acks))
	}
}

func TestDecisionForUnknownTxnIgnored(t *testing.T) {
	f := newFixture(t)
	f.s.SendAt(0, f.bID, &msg.ReplicaDecision{Txn: 9, Commit: true})
	f.s.Drain()
	if f.b.Applied != 0 {
		t.Fatal("applied a never-forwarded transaction")
	}
}

func TestApplyChargesCPU(t *testing.T) {
	f := newFixture(t)
	f.s.SendAt(0, f.bID, &msg.ReplicaForward{
		Txn: 1, Proc: "inc", Works: []any{"x"}, Committed: true, Seq: 1,
	})
	f.s.Drain()
	if f.s.BusyTime(f.bID) == 0 {
		t.Fatal("backup consumed no CPU")
	}
}
