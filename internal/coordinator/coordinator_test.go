package coordinator

import (
	"testing"

	"specdb/internal/costs"
	"specdb/internal/msg"
	"specdb/internal/sim"
	"specdb/internal/simnet"
	"specdb/internal/storage"
	"specdb/internal/txn"
)

// capture records every message an actor receives.
type capture struct {
	got []sim.Message
}

func (c *capture) Receive(ctx *sim.Context, m sim.Message) {
	c.got = append(c.got, m)
}

func (c *capture) fragments() []*msg.Fragment {
	var out []*msg.Fragment
	for _, m := range c.got {
		if f, ok := m.(*msg.Fragment); ok {
			out = append(out, f)
		}
	}
	return out
}

func (c *capture) decisions() []*msg.Decision {
	var out []*msg.Decision
	for _, m := range c.got {
		if d, ok := m.(*msg.Decision); ok {
			out = append(out, d)
		}
	}
	return out
}

func (c *capture) replies() []*msg.ClientReply {
	var out []*msg.ClientReply
	for _, m := range c.got {
		if r, ok := m.(*msg.ClientReply); ok {
			out = append(out, r)
		}
	}
	return out
}

// twoPartProc is a trivial 2-partition, possibly 2-round procedure.
type twoPartProc struct{ rounds int }

func (p twoPartProc) Name() string { return "test.proc" }
func (p twoPartProc) Plan(args any, cat *txn.Catalog) txn.Plan {
	return txn.Plan{
		Parts:  []msg.PartitionID{0, 1},
		Work:   map[msg.PartitionID]any{0: "w0r0", 1: "w1r0"},
		Rounds: p.rounds,
	}
}
func (p twoPartProc) Continue(args any, round int, prior []msg.FragmentResult, cat *txn.Catalog) map[msg.PartitionID]any {
	return map[msg.PartitionID]any{0: "w0r1", 1: "w1r1"}
}
func (p twoPartProc) Run(view *storage.TxnView, w any) (any, error) { return w, nil }
func (p twoPartProc) Output(args any, final []msg.FragmentResult) any {
	return "done"
}

type harness struct {
	s       *sim.ShardedScheduler
	coord   *Coordinator
	coordID sim.ActorID
	parts   []*capture
	partIDs []sim.ActorID
	client  *capture
	cliID   sim.ActorID
}

func newHarness(t *testing.T, rounds int) *harness {
	t.Helper()
	h := &harness{s: sim.NewSharded(1, sim.Microsecond)}
	reg := txn.NewRegistry()
	reg.Register(twoPartProc{rounds: rounds})
	cm := costs.Default()
	net := simnet.New(cm.OneWayLatency)
	for i := 0; i < 2; i++ {
		c := &capture{}
		h.parts = append(h.parts, c)
		h.partIDs = append(h.partIDs, h.s.Register("p", c))
	}
	h.coord = New(reg, &txn.Catalog{NumPartitions: 2}, &cm, net, h.partIDs)
	h.coordID = h.s.Register("coord", h.coord)
	h.coord.Bind(h.coordID)
	h.client = &capture{}
	h.cliID = h.s.Register("client", h.client)
	return h
}

func (h *harness) request(id uint64) {
	h.s.SendAt(h.s.Now(), h.coordID, &msg.Request{
		Txn: msg.TxnID(id), Proc: "test.proc", Client: h.cliID,
		Parts: []msg.PartitionID{0, 1}, AbortAt: txn.NoAbort,
	})
	h.s.Drain()
}

func (h *harness) vote(id uint64, part msg.PartitionID, round int, aborted bool, spec bool, dep uint64, gen uint32) {
	h.s.SendAt(h.s.Now(), h.coordID, &msg.FragmentResult{
		Txn: msg.TxnID(id), Partition: part, Round: round,
		Aborted: aborted, Speculative: spec, DependsOn: msg.TxnID(dep), Gen: gen,
	})
	h.s.Drain()
}

func TestSimpleCommitFlow(t *testing.T) {
	h := newHarness(t, 1)
	h.request(1)
	for p, c := range h.parts {
		fs := c.fragments()
		if len(fs) != 1 || !fs[0].Last || fs[0].Round != 0 {
			t.Fatalf("partition %d fragments = %+v", p, fs)
		}
		if !fs[0].MultiPartition || fs[0].Coord != h.coordID {
			t.Fatalf("fragment misaddressed: %+v", fs[0])
		}
	}
	h.vote(1, 0, 0, false, false, 0, 0)
	if len(h.parts[0].decisions()) != 0 {
		t.Fatal("decided with one vote")
	}
	h.vote(1, 1, 0, false, false, 0, 0)
	for p, c := range h.parts {
		ds := c.decisions()
		if len(ds) != 1 || !ds[0].Commit {
			t.Fatalf("partition %d decisions = %+v", p, ds)
		}
	}
	rs := h.client.replies()
	if len(rs) != 1 || !rs[0].Committed || rs[0].Output != "done" {
		t.Fatalf("client replies = %+v", rs)
	}
	if h.coord.Pending() != 0 {
		t.Fatal("transaction leaked")
	}
}

func TestNoVoteAborts(t *testing.T) {
	h := newHarness(t, 1)
	h.request(1)
	h.vote(1, 0, 0, true, false, 0, 0) // vote no
	h.vote(1, 1, 0, false, false, 0, 0)
	for _, c := range h.parts {
		ds := c.decisions()
		if len(ds) != 1 || ds[0].Commit {
			t.Fatalf("decisions = %+v", ds)
		}
		if ds[0].Gen != 1 {
			t.Fatalf("abort decision must carry bumped generation, got %d", ds[0].Gen)
		}
	}
	rs := h.client.replies()
	if len(rs) != 1 || rs[0].Committed || !rs[0].UserAborted {
		t.Fatalf("replies = %+v", rs)
	}
	if h.coord.Aborts != 1 {
		t.Fatalf("aborts = %d", h.coord.Aborts)
	}
}

func TestKilledVoteMarksRetryable(t *testing.T) {
	h := newHarness(t, 1)
	h.request(1)
	h.s.SendAt(h.s.Now(), h.coordID, &msg.FragmentResult{
		Txn: 1, Partition: 0, Aborted: true, Killed: true,
	})
	h.s.Drain()
	h.vote(1, 1, 0, false, false, 0, 0)
	rs := h.client.replies()
	if len(rs) != 1 || !rs[0].Retryable || rs[0].UserAborted {
		t.Fatalf("replies = %+v", rs)
	}
}

func TestMultiRoundAdvance(t *testing.T) {
	h := newHarness(t, 2)
	h.request(1)
	fs := h.parts[0].fragments()
	if len(fs) != 1 || fs[0].Last {
		t.Fatalf("round 0 must not be Last: %+v", fs)
	}
	h.vote(1, 0, 0, false, false, 0, 0)
	h.vote(1, 1, 0, false, false, 0, 0)
	fs = h.parts[0].fragments()
	if len(fs) != 2 || !fs[1].Last || fs[1].Round != 1 || fs[1].Work != "w0r1" {
		t.Fatalf("round 1 fragment = %+v", fs)
	}
	h.vote(1, 0, 1, false, false, 0, 0)
	h.vote(1, 1, 1, false, false, 0, 0)
	if len(h.parts[0].decisions()) != 1 {
		t.Fatal("no decision after final round")
	}
}

func TestInOrderDecisionRelease(t *testing.T) {
	h := newHarness(t, 1)
	h.request(1)
	h.request(2)
	// Transaction 2's votes arrive first.
	h.vote(2, 0, 0, false, true, 1, 0)
	h.vote(2, 1, 0, false, true, 1, 0)
	if len(h.parts[0].decisions()) != 0 {
		t.Fatal("decision released out of order")
	}
	h.vote(1, 0, 0, false, false, 0, 0)
	h.vote(1, 1, 0, false, false, 0, 0)
	ds := h.parts[0].decisions()
	if len(ds) != 2 || ds[0].Txn != 1 || ds[1].Txn != 2 {
		t.Fatalf("decisions = %+v", ds)
	}
	if !ds[0].Commit || !ds[1].Commit {
		t.Fatal("both should commit")
	}
}

func TestDependencyAbortDiscardsAndAwaitsResend(t *testing.T) {
	h := newHarness(t, 1)
	h.request(1)
	h.request(2)
	// Transaction 1 votes no at partition 0; both partitions had already
	// speculated transaction 2 on top of it.
	h.vote(2, 0, 0, false, true, 1, 0)
	h.vote(2, 1, 0, false, true, 1, 0)
	h.vote(1, 0, 0, true, false, 0, 0)
	h.vote(1, 1, 0, false, false, 0, 0)
	// Transaction 1 aborted; transaction 2's speculative results must be
	// discarded, not committed.
	ds := h.parts[0].decisions()
	if len(ds) != 1 || ds[0].Txn != 1 || ds[0].Commit {
		t.Fatalf("decisions = %+v", ds)
	}
	if h.coord.Discarded != 2 {
		t.Fatalf("discarded = %d", h.coord.Discarded)
	}
	// Partitions re-execute and resend with the bumped generation.
	h.vote(2, 0, 0, false, false, 0, 1)
	h.vote(2, 1, 0, false, false, 0, 1)
	ds = h.parts[0].decisions()
	if len(ds) != 2 || ds[1].Txn != 2 || !ds[1].Commit {
		t.Fatalf("decisions = %+v", ds)
	}
}

func TestStaleGenerationResultDropped(t *testing.T) {
	h := newHarness(t, 1)
	h.request(1)
	h.request(2)
	h.vote(1, 0, 0, true, false, 0, 0)
	h.vote(1, 1, 0, false, false, 0, 0)
	// An in-flight speculative result for txn 2 stamped with the old
	// generation arrives after the abort: it must be ignored.
	h.vote(2, 0, 0, false, true, 1, 0)
	h.vote(2, 1, 0, false, true, 1, 0)
	if len(h.parts[0].decisions()) != 1 {
		t.Fatal("stale speculative results were consumed")
	}
	// Fresh resends complete the transaction.
	h.vote(2, 0, 0, false, false, 0, 1)
	h.vote(2, 1, 0, false, false, 0, 1)
	if len(h.parts[0].decisions()) != 2 {
		t.Fatal("resent results not consumed")
	}
}

func TestCoordinatorChargesCPU(t *testing.T) {
	h := newHarness(t, 1)
	h.request(1)
	h.vote(1, 0, 0, false, false, 0, 0)
	h.vote(1, 1, 0, false, false, 0, 0)
	if h.s.BusyTime(h.coordID) == 0 {
		t.Fatal("coordinator consumed no CPU")
	}
}
