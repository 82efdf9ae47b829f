package partition

import (
	"testing"

	"specdb/internal/core"
	"specdb/internal/costs"
	"specdb/internal/msg"
	"specdb/internal/sim"
	"specdb/internal/simnet"
	"specdb/internal/storage"
	"specdb/internal/txn"
)

// incProc increments the key named by the work payload.
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

type sink struct {
	msgs  []sim.Message
	times []sim.Time
}

func (s *sink) Receive(ctx *sim.Context, m sim.Message) {
	s.msgs = append(s.msgs, m)
	s.times = append(s.times, ctx.Now())
}

type fixture struct {
	s      *sim.ShardedScheduler
	part   *Partition
	partID sim.ActorID
	client *sink
	cliID  sim.ActorID
	coord  *sink
	coID   sim.ActorID
	backup *sink
	bkID   sim.ActorID
	cm     costs.Model
}

// newFixture wires a real partition (blocking engine) to sink actors. The
// backup sink does NOT auto-ack, so tests control ack timing.
func newFixture(t *testing.T, withBackup bool) *fixture {
	t.Helper()
	f := &fixture{s: sim.NewSharded(1, sim.Microsecond), cm: costs.Default()}
	reg := txn.NewRegistry()
	reg.Register(incProc{})
	store := storage.NewStore()
	store.AddTable(storage.NewHashTable("t"))
	net := simnet.New(f.cm.OneWayLatency)
	f.part = New(Config{ID: 0, Store: store, Registry: reg, Costs: &f.cm, Net: net})
	f.partID = f.s.Register("part", f.part)
	f.client = &sink{}
	f.cliID = f.s.Register("client", f.client)
	f.coord = &sink{}
	f.coID = f.s.Register("coord", f.coord)
	if withBackup {
		f.backup = &sink{}
		f.bkID = f.s.Register("backup", f.backup)
		f.part.SetBackups([]sim.ActorID{f.bkID})
	}
	f.part.Bind(f.partID, func(env core.Env) core.Engine { return core.NewBlocking(env) })
	return f
}

func (f *fixture) spFragment(id uint64) *msg.Fragment {
	return &msg.Fragment{
		Txn: msg.TxnID(id), Proc: "inc", Last: true, Work: "x",
		Client: f.cliID, Coord: f.cliID,
	}
}

func (f *fixture) mpFragment(id uint64) *msg.Fragment {
	return &msg.Fragment{
		Txn: msg.TxnID(id), Proc: "inc", Last: true, Work: "x",
		Client: f.cliID, Coord: f.coID, MultiPartition: true,
	}
}

func TestExecutionChargesCost(t *testing.T) {
	f := newFixture(t, false)
	f.s.SendAt(0, f.partID, f.spFragment(1))
	f.s.Drain()
	// One increment: 2 row ops at 1µs + 40µs base = 42µs.
	want := f.cm.Fragment("inc", 2, 1, 0, false)
	if got := f.s.BusyTime(f.partID); got != want {
		t.Fatalf("busy = %v, want %v", got, want)
	}
	if len(f.client.msgs) != 1 {
		t.Fatalf("client msgs = %d", len(f.client.msgs))
	}
}

func TestInjectedAbortCheap(t *testing.T) {
	f := newFixture(t, false)
	fr := f.spFragment(1)
	fr.InjectAbort = true
	f.s.SendAt(0, f.partID, fr)
	f.s.Drain()
	if got := f.s.BusyTime(f.partID); got != f.cm.AbortedFragment {
		t.Fatalf("busy = %v, want %v", got, f.cm.AbortedFragment)
	}
	r := f.client.msgs[0].(*msg.ClientReply)
	if r.Committed || !r.UserAborted {
		t.Fatalf("reply = %+v", r)
	}
}

func TestSPReplyGatedOnBackupAck(t *testing.T) {
	f := newFixture(t, true)
	f.s.SendAt(0, f.partID, f.spFragment(1))
	f.s.Drain()
	// Forward went to the backup, but no ack yet: no client reply.
	if len(f.backup.msgs) != 1 {
		t.Fatalf("backup msgs = %d", len(f.backup.msgs))
	}
	fw := f.backup.msgs[0].(*msg.ReplicaForward)
	if !fw.Committed || len(fw.Works) != 1 {
		t.Fatalf("forward = %+v", fw)
	}
	if len(f.client.msgs) != 0 {
		t.Fatal("reply sent before backup ack")
	}
	// Ack releases the reply.
	f.s.SendAt(f.s.Now(), f.partID, &msg.ReplicaAck{Txn: 1, Seq: fw.Seq, From: f.bkID})
	f.s.Drain()
	if len(f.client.msgs) != 1 {
		t.Fatal("reply not released by ack")
	}
}

func TestMPVoteGatedOnBackupAck(t *testing.T) {
	f := newFixture(t, true)
	f.s.SendAt(0, f.partID, f.mpFragment(2))
	f.s.Drain()
	if len(f.coord.msgs) != 0 {
		t.Fatal("vote sent before backup ack")
	}
	fw := f.backup.msgs[0].(*msg.ReplicaForward)
	if fw.Committed {
		t.Fatal("prepared forward marked committed")
	}
	f.s.SendAt(f.s.Now(), f.partID, &msg.ReplicaAck{Txn: 2, Seq: fw.Seq, From: f.bkID})
	f.s.Drain()
	if len(f.coord.msgs) != 1 {
		t.Fatal("vote not released")
	}
	if r := f.coord.msgs[0].(*msg.FragmentResult); r.Aborted {
		t.Fatalf("vote = %+v", r)
	}
}

func TestDecisionForwardPrecedesReleasedWork(t *testing.T) {
	f := newFixture(t, true)
	f.s.SendAt(0, f.partID, f.mpFragment(2))
	f.s.Drain()
	fw := f.backup.msgs[0].(*msg.ReplicaForward)
	f.s.SendAt(f.s.Now(), f.partID, &msg.ReplicaAck{Txn: 2, Seq: fw.Seq, From: f.bkID})
	f.s.Drain()
	// Queue an SP transaction behind the MP one, then commit the MP txn:
	// the backup must see the ReplicaDecision BEFORE the SP's forward.
	f.s.SendAt(f.s.Now(), f.partID, f.spFragment(3))
	f.s.Drain()
	f.s.SendAt(f.s.Now(), f.partID, &msg.Decision{Txn: 2, Commit: true})
	f.s.Drain()
	var kinds []string
	for _, m := range f.backup.msgs {
		switch m.(type) {
		case *msg.ReplicaForward:
			kinds = append(kinds, "fwd")
		case *msg.ReplicaDecision:
			kinds = append(kinds, "dec")
		}
	}
	want := []string{"fwd", "dec", "fwd"}
	if len(kinds) != 3 || kinds[0] != want[0] || kinds[1] != want[1] || kinds[2] != want[2] {
		t.Fatalf("backup message order = %v, want %v", kinds, want)
	}
}

func TestStaleAckIgnored(t *testing.T) {
	f := newFixture(t, true)
	f.s.SendAt(0, f.partID, f.spFragment(1))
	f.s.Drain()
	fw := f.backup.msgs[0].(*msg.ReplicaForward)
	// Wrong sequence: must not release.
	f.s.SendAt(f.s.Now(), f.partID, &msg.ReplicaAck{Txn: 1, Seq: fw.Seq + 7, From: f.bkID})
	f.s.Drain()
	if len(f.client.msgs) != 0 {
		t.Fatal("stale ack released reply")
	}
}

func TestAbortedMPNotForwarded(t *testing.T) {
	f := newFixture(t, true)
	fr := f.mpFragment(4)
	fr.InjectAbort = true
	f.s.SendAt(0, f.partID, fr)
	f.s.Drain()
	// No-vote goes straight out (nothing to make durable).
	if len(f.backup.msgs) != 0 {
		t.Fatal("aborted transaction forwarded to backup")
	}
	if len(f.coord.msgs) != 1 || !f.coord.msgs[0].(*msg.FragmentResult).Aborted {
		t.Fatalf("coord msgs = %+v", f.coord.msgs)
	}
}

func TestGenTracking(t *testing.T) {
	f := newFixture(t, false)
	fr := f.mpFragment(1)
	fr.Gen = 5
	f.s.SendAt(0, f.partID, fr)
	f.s.Drain()
	r := f.coord.msgs[0].(*msg.FragmentResult)
	if r.Gen != 5 {
		t.Fatalf("result gen = %d, want 5", r.Gen)
	}
}

func TestSwapEngineRequiresQuiescence(t *testing.T) {
	f := newFixture(t, false)
	// A multi-partition transaction occupies the engine until its 2PC
	// decision arrives; swapping mid-transaction must fail.
	f.s.SendAt(0, f.partID, f.mpFragment(1))
	f.s.Drain()
	specFactory := func(env core.Env) core.Engine { return core.NewSpeculative(env) }
	if err := f.part.SwapEngine(specFactory); err == nil {
		t.Fatal("swap succeeded with a transaction awaiting its decision")
	}
	f.s.SendAt(f.s.Now(), f.partID, &msg.Decision{Txn: 1, Commit: true})
	f.s.Drain()
	if !f.part.Quiescent() {
		t.Fatal("partition not quiescent after decision")
	}
	if got := f.part.EngineTotals().Executed; got != 1 {
		t.Fatalf("executed = %d, want 1", got)
	}
	if err := f.part.SwapEngine(specFactory); err != nil {
		t.Fatal(err)
	}
	if got := f.part.Engine().Scheme(); got != core.SchemeSpeculative {
		t.Fatalf("scheme after swap = %v", got)
	}
	// Counters from the retired engine survive; new work stacks on top.
	f.s.SendAt(f.s.Now(), f.partID, f.spFragment(2))
	f.s.Drain()
	if got := f.part.EngineTotals().Executed; got != 2 {
		t.Fatalf("executed after swap = %d, want 2", got)
	}
}
