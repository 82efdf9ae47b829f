package client

import (
	"math/rand"
	"runtime"
	"testing"

	"specdb/internal/core"
	"specdb/internal/costs"
	"specdb/internal/metrics"
	"specdb/internal/msg"
	"specdb/internal/sim"
	"specdb/internal/simnet"
	"specdb/internal/storage"
	"specdb/internal/txn"
	"specdb/internal/workload"
)

// stubProc plans onto two partitions with the given rounds.
type stubProc struct{ rounds int }

func (p stubProc) Name() string { return "stub" }
func (p stubProc) Plan(args any, cat *txn.Catalog) txn.Plan {
	parts := args.([]msg.PartitionID)
	work := map[msg.PartitionID]any{}
	for _, pt := range parts {
		work[pt] = int(pt)
	}
	return txn.Plan{Parts: parts, Work: work, Rounds: p.rounds}
}
func (p stubProc) Continue(args any, round int, prior []msg.FragmentResult, cat *txn.Catalog) map[msg.PartitionID]any {
	work := map[msg.PartitionID]any{}
	for _, pt := range args.([]msg.PartitionID) {
		work[pt] = 100 + int(pt)
	}
	return work
}
func (p stubProc) Run(view *storage.TxnView, w any) (any, error) { return w, nil }
func (p stubProc) Output(args any, final []msg.FragmentResult) any {
	return "out"
}

type sink struct{ msgs []sim.Message }

func (s *sink) Receive(ctx *sim.Context, m sim.Message) { s.msgs = append(s.msgs, m) }

func (s *sink) fragments() []*msg.Fragment {
	var out []*msg.Fragment
	for _, m := range s.msgs {
		if f, ok := m.(*msg.Fragment); ok {
			out = append(out, f)
		}
	}
	return out
}

func (s *sink) decisions() []*msg.Decision {
	var out []*msg.Decision
	for _, m := range s.msgs {
		if d, ok := m.(*msg.Decision); ok {
			out = append(out, d)
		}
	}
	return out
}

type fixture struct {
	s      *sim.ShardedScheduler
	cl     *Client
	clID   sim.ActorID
	parts  []*sink
	coord  *sink
	col    *metrics.Collector
	script *workload.Script
}

func newFixture(t *testing.T, scheme core.Scheme, rounds int, invs []*txn.Invocation) *fixture {
	t.Helper()
	f := &fixture{s: sim.NewSharded(1, sim.Microsecond)}
	reg := txn.NewRegistry()
	reg.Register(stubProc{rounds: rounds})
	cm := costs.Default()
	f.col = metrics.NewCollector(0, sim.Time(1<<60))
	f.script = &workload.Script{Invs: invs}
	var partIDs []sim.ActorID
	for i := 0; i < 2; i++ {
		p := &sink{}
		f.parts = append(f.parts, p)
		partIDs = append(partIDs, f.s.Register("p", p))
	}
	f.coord = &sink{}
	coID := f.s.Register("coord", f.coord)
	f.cl = &Client{
		Registry:    reg,
		Catalog:     &txn.Catalog{NumPartitions: 2},
		Costs:       &cm,
		Net:         simnet.New(cm.OneWayLatency),
		Metrics:     f.col,
		Scheme:      scheme,
		Coordinator: coID,
		Parts:       partIDs,
		Gen:         f.script,
	}
	f.clID = f.s.Register("client", f.cl)
	f.cl.Bind(f.clID, 1)
	f.s.SendAt(0, f.clID, Start{})
	f.s.Drain()
	return f
}

func inv(parts ...msg.PartitionID) *txn.Invocation {
	return &txn.Invocation{Proc: "stub", Args: parts, AbortAt: txn.NoAbort}
}

func TestSPRoutedDirectly(t *testing.T) {
	f := newFixture(t, core.SchemeSpeculative, 1, []*txn.Invocation{inv(1)})
	if len(f.parts[1].fragments()) != 1 {
		t.Fatal("SP fragment not sent to its partition")
	}
	fr := f.parts[1].fragments()[0]
	if fr.MultiPartition || !fr.Last || fr.Client != f.clID {
		t.Fatalf("fragment = %+v", fr)
	}
	if len(f.coord.msgs) != 0 {
		t.Fatal("SP request went through coordinator")
	}
}

func TestMPViaCoordinatorUnderSpeculation(t *testing.T) {
	f := newFixture(t, core.SchemeSpeculative, 1, []*txn.Invocation{inv(0, 1)})
	if len(f.coord.msgs) != 1 {
		t.Fatalf("coordinator msgs = %d", len(f.coord.msgs))
	}
	if _, ok := f.coord.msgs[0].(*msg.Request); !ok {
		t.Fatalf("expected Request, got %T", f.coord.msgs[0])
	}
	if len(f.parts[0].fragments()) != 0 {
		t.Fatal("client sent fragments directly despite central coordination")
	}
}

func TestMPClientCoordinatedUnderLocking(t *testing.T) {
	f := newFixture(t, core.SchemeLocking, 1, []*txn.Invocation{inv(0, 1)})
	// Fragments go straight to both partitions (§4.3).
	for i, p := range f.parts {
		fs := p.fragments()
		if len(fs) != 1 || !fs[0].MultiPartition || !fs[0].Last {
			t.Fatalf("partition %d fragments = %+v", i, fs)
		}
	}
	if len(f.coord.msgs) != 0 {
		t.Fatal("locking MP went through central coordinator")
	}
	id := f.parts[0].fragments()[0].Txn
	// Both vote yes: client sends commits and completes.
	f.s.SendAt(f.s.Now(), f.clID, &msg.FragmentResult{Txn: id, Partition: 0})
	f.s.SendAt(f.s.Now(), f.clID, &msg.FragmentResult{Txn: id, Partition: 1})
	f.s.Drain()
	for i, p := range f.parts {
		ds := p.decisions()
		if len(ds) != 1 || !ds[0].Commit {
			t.Fatalf("partition %d decisions = %+v", i, ds)
		}
	}
	if f.col.Window.Committed != 1 {
		t.Fatalf("committed = %d", f.col.Window.Committed)
	}
}

func TestMPNoVoteAbortsAll(t *testing.T) {
	f := newFixture(t, core.SchemeLocking, 1, []*txn.Invocation{inv(0, 1)})
	id := f.parts[0].fragments()[0].Txn
	f.s.SendAt(f.s.Now(), f.clID, &msg.FragmentResult{Txn: id, Partition: 0, Aborted: true})
	f.s.Drain()
	// Abort decision to every participant without waiting for the other
	// vote; transaction completes as user-aborted.
	for i, p := range f.parts {
		ds := p.decisions()
		if len(ds) != 1 || ds[0].Commit {
			t.Fatalf("partition %d decisions = %+v", i, ds)
		}
	}
	if f.col.Window.UserAborted != 1 {
		t.Fatalf("user aborted = %d", f.col.Window.UserAborted)
	}
	// A late vote from the other participant is stale and ignored.
	f.s.SendAt(f.s.Now(), f.clID, &msg.FragmentResult{Txn: id, Partition: 1})
	f.s.Drain()
	if f.col.Completed() != 1 {
		t.Fatal("stale vote double-completed")
	}
}

func TestKilledVoteRetriesWithFreshID(t *testing.T) {
	f := newFixture(t, core.SchemeLocking, 1, []*txn.Invocation{inv(0, 1)})
	id := f.parts[0].fragments()[0].Txn
	f.s.SendAt(f.s.Now(), f.clID, &msg.FragmentResult{Txn: id, Partition: 0, Aborted: true, Killed: true})
	f.s.Drain()
	// Aborted everywhere, then retried with a new transaction ID.
	fs := f.parts[0].fragments()
	if len(fs) != 2 {
		t.Fatalf("fragments after retry = %d", len(fs))
	}
	if fs[1].Txn == id {
		t.Fatal("retry reused the transaction ID")
	}
	if f.col.Window.Retries != 1 {
		t.Fatalf("retries = %d", f.col.Window.Retries)
	}
	// The retry commits.
	id2 := fs[1].Txn
	f.s.SendAt(f.s.Now(), f.clID, &msg.FragmentResult{Txn: id2, Partition: 0})
	f.s.SendAt(f.s.Now(), f.clID, &msg.FragmentResult{Txn: id2, Partition: 1})
	f.s.Drain()
	if f.col.Window.Committed != 1 {
		t.Fatalf("committed = %d", f.col.Window.Committed)
	}
}

func TestMultiRoundClientDriver(t *testing.T) {
	f := newFixture(t, core.SchemeLocking, 2, []*txn.Invocation{inv(0, 1)})
	id := f.parts[0].fragments()[0].Txn
	if f.parts[0].fragments()[0].Last {
		t.Fatal("round 0 marked Last in a 2-round plan")
	}
	f.s.SendAt(f.s.Now(), f.clID, &msg.FragmentResult{Txn: id, Partition: 0, Round: 0})
	f.s.SendAt(f.s.Now(), f.clID, &msg.FragmentResult{Txn: id, Partition: 1, Round: 0})
	f.s.Drain()
	fs := f.parts[0].fragments()
	if len(fs) != 2 || !fs[1].Last || fs[1].Round != 1 || fs[1].Work != 100 {
		t.Fatalf("round 1 fragment = %+v", fs)
	}
	f.s.SendAt(f.s.Now(), f.clID, &msg.FragmentResult{Txn: id, Partition: 0, Round: 1})
	f.s.SendAt(f.s.Now(), f.clID, &msg.FragmentResult{Txn: id, Partition: 1, Round: 1})
	f.s.Drain()
	if f.col.Window.Committed != 1 {
		t.Fatalf("committed = %d", f.col.Window.Committed)
	}
}

func TestClosedLoopIssuesNextAfterReply(t *testing.T) {
	f := newFixture(t, core.SchemeSpeculative, 1, []*txn.Invocation{inv(0), inv(1)})
	// First SP fragment out; reply completes it and triggers the next.
	id := f.parts[0].fragments()[0].Txn
	f.s.SendAt(f.s.Now(), f.clID, &msg.ClientReply{Txn: id, Committed: true})
	f.s.Drain()
	if len(f.parts[1].fragments()) != 1 {
		t.Fatal("second invocation not issued")
	}
	if f.cl.Issued != 2 {
		t.Fatalf("issued = %d", f.cl.Issued)
	}
}

// echoPart commits every fragment immediately, recycling reply objects so
// the allocation pin below measures only the client's own path.
type echoPart struct {
	ring [32]msg.ClientReply
	i    int
}

func (e *echoPart) Receive(ctx *sim.Context, m sim.Message) {
	f, ok := m.(*msg.Fragment)
	if !ok {
		return
	}
	r := &e.ring[e.i%len(e.ring)]
	e.i++
	*r = msg.ClientReply{Txn: f.Txn, Committed: true}
	ctx.Send(f.Client, r, 10*sim.Microsecond)
}

// fixedGen returns the same prebuilt invocation forever (zero allocations).
type fixedGen struct{ inv *txn.Invocation }

func (g *fixedGen) Next(ci int, rng *rand.Rand) *txn.Invocation { return g.inv }

// fixedProc hands out a prebuilt plan (zero allocations).
type fixedProc struct{ plan txn.Plan }

func (p fixedProc) Name() string                                  { return "fixed" }
func (p fixedProc) Plan(args any, cat *txn.Catalog) txn.Plan      { return p.plan }
func (p fixedProc) Run(view *storage.TxnView, w any) (any, error) { return nil, nil }
func (p fixedProc) Output(args any, final []msg.FragmentResult) any {
	return nil
}
func (p fixedProc) Continue(args any, round int, prior []msg.FragmentResult, cat *txn.Catalog) map[msg.PartitionID]any {
	return nil
}

// TestOpenLoopIssuePathAllocations extends the ISSUE 4 zero-garbage gates to
// the open-loop machinery: with a zero-alloc generator and plan, a steady
// arrival→issue→reply cycle allocates exactly one object per transaction —
// the Fragment message the closed loop also pays for. Arrival ticks, the
// pending queue, the attempt freelist and reply handling add nothing.
func TestOpenLoopIssuePathAllocations(t *testing.T) {
	s := sim.NewSharded(1, sim.Microsecond)
	reg := txn.NewRegistry()
	part := &echoPart{}
	partID := s.Register("p", part)
	cm := costs.Default()
	reg.Register(fixedProc{plan: txn.Plan{
		Parts:  []msg.PartitionID{0},
		Work:   map[msg.PartitionID]any{0: nil},
		Rounds: 1,
	}})
	cl := &Client{
		Registry: reg,
		Catalog:  &txn.Catalog{NumPartitions: 1},
		Costs:    &cm,
		Net:      simnet.New(cm.OneWayLatency),
		Metrics:  metrics.NewCollector(0, sim.Time(1<<60)),
		Scheme:   core.SchemeSpeculative,
		Parts:    []sim.ActorID{partID},
		Gen:      &fixedGen{inv: &txn.Invocation{Proc: "fixed", AbortAt: txn.NoAbort}},
		Arrival: &Arrival{
			Mean:   50 * sim.Microsecond,
			Window: 2,
			Queue:  4,
		},
	}
	clID := s.Register("client", cl)
	cl.Bind(clID, 1)
	s.SendAt(0, clID, Start{})
	for i := 0; i < 2000; i++ {
		if !s.Step() {
			t.Fatal("open loop went quiescent")
		}
	}
	var before, after runtime.MemStats
	completedBefore := cl.Completed
	runtime.ReadMemStats(&before)
	for i := 0; i < 4000; i++ {
		s.Step()
	}
	runtime.ReadMemStats(&after)
	txns := cl.Completed - completedBefore
	allocs := after.Mallocs - before.Mallocs
	if txns == 0 {
		t.Fatal("no transactions completed in measurement span")
	}
	// One Fragment per transaction, plus a little slack for runtime noise
	// (ReadMemStats itself and incidental background allocation).
	if limit := txns + txns/10 + 8; allocs > limit {
		t.Fatalf("open-loop path: %d allocs for %d txns (limit %d) — ≈%.2f/txn, want ≈1",
			allocs, txns, limit, float64(allocs)/float64(txns))
	}
}

func TestRetryableReplyReissuesSP(t *testing.T) {
	f := newFixture(t, core.SchemeLocking, 1, []*txn.Invocation{inv(0)})
	id := f.parts[0].fragments()[0].Txn
	f.s.SendAt(f.s.Now(), f.clID, &msg.ClientReply{Txn: id, Committed: false, Retryable: true})
	f.s.Drain()
	fs := f.parts[0].fragments()
	if len(fs) != 2 || fs[1].Txn == id {
		t.Fatalf("retry fragments = %+v", fs)
	}
	if f.col.Completed() != 0 {
		t.Fatal("killed attempt counted as completed")
	}
}
