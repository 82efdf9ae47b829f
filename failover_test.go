package specdb

import (
	"errors"
	"reflect"
	"testing"

	"specdb/internal/kvstore"
	"specdb/internal/msg"
	"specdb/internal/storage"
	"specdb/internal/workload"
)

// failoverOpts builds a microbenchmark cluster with replication and a
// finite workload, suitable for running to quiescence.
func failoverOpts(t *testing.T, scheme Scheme, perClient int, extra ...Option) []Option {
	t.Helper()
	const (
		parts      = 2
		clients    = 16
		keysPerTxn = 6
	)
	reg := NewRegistry()
	reg.Register(kvstore.Proc{})
	opts := []Option{
		WithPartitions(parts),
		WithClients(clients),
		WithReplicas(2),
		WithScheme(scheme),
		WithRegistry(reg),
		WithSeed(7),
		WithSetup(func(p PartitionID, s *Store) {
			kvstore.AddSchema(s)
			kvstore.Load(s, p, clients, keysPerTxn)
		}),
		WithWorkloadFactory(func() Generator {
			return &workload.Limit{
				Gen: &workload.Micro{Partitions: parts, KeysPerTxn: keysPerTxn, MPFraction: 0.2},
				N:   clients * perClient,
			}
		}),
	}
	return append(opts, extra...)
}

// ledger tracks, per key, how many transactions committed against it
// (client-observed truth). Every committed kv transaction increments each of
// its keys exactly once, so at quiescence the live stores must match the
// ledger exactly: a lost committed transaction or a double-applied one shows
// up as a counter mismatch.
type ledger struct {
	commits map[msg.PartitionID]map[string]int64
}

func newLedger() *ledger {
	return &ledger{commits: make(map[msg.PartitionID]map[string]int64)}
}

func (l *ledger) observe(inv *Invocation, reply *Reply) {
	if !reply.Committed {
		return
	}
	args := inv.Args.(*kvstore.Args)
	for p, keys := range args.Keys {
		m := l.commits[p]
		if m == nil {
			m = make(map[string]int64)
			l.commits[p] = m
		}
		for _, k := range keys {
			m[k]++
		}
	}
}

func (l *ledger) verify(t *testing.T, db *DB, parts int) {
	t.Helper()
	for p := 0; p < parts; p++ {
		store := db.PartitionStore(PartitionID(p))
		store.Table(kvstore.Table).Ascend("", "", func(k string, v any) bool {
			want := l.commits[PartitionID(p)][k]
			if got := v.(int64); got != want {
				t.Errorf("partition %d key %q: store=%d, committed=%d", p, k, got, want)
			}
			return true
		})
	}
}

// runToQuiescence drives a faulted DB until the workload finishes. The event
// queue may briefly hold failure-detector machinery past the last
// transaction, so DB.Quiescent is the signal, not an empty queue.
func runToQuiescence(t *testing.T, db *DB) {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		db.RunFor(10 * Millisecond)
		if db.Quiescent() {
			// Let any trailing replica forwards and detector teardown
			// drain completely.
			db.Run()
			return
		}
	}
	t.Fatalf("cluster did not quiesce: %+v", db.Peek())
}

func TestFailoverPromotionExactlyOnce(t *testing.T) {
	for _, scheme := range []Scheme{Speculation, Blocking} {
		t.Run(scheme.String(), func(t *testing.T) {
			led := newLedger()
			// The crash lands mid-traffic (10.3 ms into a ~130 ms run),
			// chosen so that every recovery path fires: stalled
			// single-partition attempts get resent, unrecoverable
			// multi-partition transactions get force-aborted, and
			// prepared-but-undecided forwards get resolved at promotion.
			opts := failoverOpts(t, scheme, 200,
				WithFaults(CrashPrimary(0, 10300*Microsecond)),
				WithOnComplete(func(ci int, inv *Invocation, reply *Reply) {
					led.observe(inv, reply)
				}),
			)
			db, err := Open(opts...)
			if err != nil {
				t.Fatal(err)
			}
			runToQuiescence(t, db)

			res := db.Result()
			if len(res.Failovers) != 1 {
				t.Fatalf("failovers = %+v", res.Failovers)
			}
			ev := res.Failovers[0]
			if ev.Role != "primary" || ev.Partition != 0 {
				t.Fatalf("unexpected failover event %+v", ev)
			}
			if ev.CrashedAt != 10300*Microsecond {
				t.Errorf("CrashedAt = %v", ev.CrashedAt)
			}
			if ev.DetectedAt <= ev.CrashedAt || ev.PromotedAt < ev.DetectedAt {
				t.Errorf("stage times out of order: %+v", ev)
			}
			if res.Downtime <= 0 {
				t.Errorf("downtime = %v", res.Downtime)
			}
			if res.FailoverResends == 0 {
				t.Error("no recovery resends: the crash missed the traffic")
			}
			if ev.AbortedInFlight == 0 {
				t.Error("no in-flight aborts: the crash missed multi-partition traffic")
			}
			// The promotion must be visible to clients: the workload ran to
			// completion, i.e. every client finished its quota.
			m := db.Peek()
			if m.Failovers != 1 {
				t.Errorf("metrics failovers = %d", m.Failovers)
			}
			var issued uint64
			for _, cl := range db.Clients() {
				if !cl.Idle() {
					t.Fatalf("client %d still busy after quiescence", cl.Index)
				}
				issued += cl.Completed
			}
			if got, want := issued, uint64(16*200); got != want {
				t.Errorf("completed %d transactions, want %d", got, want)
			}
			// Exactly-once: the live stores match the client-observed
			// commit ledger key for key.
			led.verify(t, db, 2)
			// The surviving partition's backup converged to its primary.
			if err := storage.DiffStores(db.PartitionStore(1), db.BackupStores(1)[0]); err != nil {
				t.Errorf("partition 1 backup diverged: %v", err)
			}
		})
	}
}

func TestFailoverDeterministic(t *testing.T) {
	run := func() (Result, uint64, uint64) {
		db, err := Open(failoverOpts(t, Speculation, 100,
			WithFaults(CrashPrimary(1, 10300*Microsecond)))...)
		if err != nil {
			t.Fatal(err)
		}
		runToQuiescence(t, db)
		return db.Result(), db.PartitionStore(0).Fingerprint(), db.PartitionStore(1).Fingerprint()
	}
	r1, fp0a, fp1a := run()
	r2, fp0b, fp1b := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("results differ:\n%+v\n%+v", r1, r2)
	}
	if fp0a != fp0b || fp1a != fp1b {
		t.Errorf("store fingerprints differ: (%x,%x) vs (%x,%x)", fp0a, fp1a, fp0b, fp1b)
	}
	if len(r1.Failovers) != 1 || r1.Failovers[0].PromotedAt == 0 {
		t.Errorf("failover did not complete: %+v", r1.Failovers)
	}
}

func TestCrashBackupReleasesGatedSends(t *testing.T) {
	led := newLedger()
	db, err := Open(failoverOpts(t, Speculation, 100,
		WithFaults(CrashBackup(0, 1, 10300*Microsecond)),
		WithOnComplete(func(ci int, inv *Invocation, reply *Reply) {
			led.observe(inv, reply)
		}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	runToQuiescence(t, db)

	res := db.Result()
	if len(res.Failovers) != 1 {
		t.Fatalf("failovers = %+v", res.Failovers)
	}
	ev := res.Failovers[0]
	if ev.Role != "backup" || ev.Partition != 0 || ev.Replica != 1 {
		t.Fatalf("unexpected event %+v", ev)
	}
	if ev.DetectedAt <= ev.CrashedAt {
		t.Errorf("backup crash not detected: %+v", ev)
	}
	if ev.Downtime() != 0 {
		t.Errorf("backup crash has downtime %v", ev.Downtime())
	}
	// Every client ran to completion: votes and replies gated on the dead
	// backup's acks were released, and new transactions stopped waiting on
	// it entirely.
	for _, cl := range db.Clients() {
		if !cl.Idle() {
			t.Fatalf("client %d wedged after backup crash", cl.Index)
		}
	}
	led.verify(t, db, 2)
	// Partition 1's replication is untouched.
	if err := storage.DiffStores(db.PartitionStore(1), db.BackupStores(1)[0]); err != nil {
		t.Errorf("partition 1 backup diverged: %v", err)
	}
}

func TestFaultValidation(t *testing.T) {
	reg := NewRegistry()
	reg.Register(kvstore.Proc{})
	base := []Option{
		WithRegistry(reg),
		WithWorkload(&workload.Micro{Partitions: 2, KeysPerTxn: 2}),
		WithReplicas(2),
	}
	cases := []struct {
		name string
		opts []Option
		want error
	}{
		{"locking", append(base[:2:2], WithReplicas(2), WithScheme(Locking), WithFaults(CrashPrimary(0, Millisecond))), ErrFaultsLocking},
		{"advisor", append(base[:2:2], WithReplicas(2), WithAdvisor(AdvisorConfig{}), WithFaults(CrashPrimary(0, Millisecond))), ErrFaultsAdvisor},
		{"no-replica", append(base[:2:2], WithReplicas(1), WithFaults(CrashPrimary(0, Millisecond))), ErrBadFaults},
		{"bad-partition", append(base[:3:3], WithFaults(CrashPrimary(7, Millisecond))), ErrBadFaults},
		{"bad-backup-index", append(base[:3:3], WithFaults(CrashBackup(0, 2, Millisecond))), ErrBadFaults},
		{"double-fault", append(base[:3:3], WithFaults(CrashPrimary(0, Millisecond), CrashBackup(0, 1, 2*Millisecond))), ErrBadFaults},
		{"bad-detector", append(base[:3:3], WithFailureDetection(Millisecond, Millisecond), WithFaults(CrashPrimary(0, Millisecond))), ErrBadFaults},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Open(tc.opts...); !errors.Is(err, tc.want) {
				t.Errorf("Open = %v, want %v", err, tc.want)
			}
		})
	}
	// SetScheme to locking is rejected on a faulted DB.
	db, err := Open(failoverOpts(t, Speculation, 1, WithFaults(CrashPrimary(0, Millisecond)))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetScheme(Locking); !errors.Is(err, ErrFaultsLocking) {
		t.Errorf("SetScheme(Locking) = %v, want %v", err, ErrFaultsLocking)
	}
}

// TestReplicaConvergenceUnderCascades is the no-fault replication oracle:
// after a run full of user aborts and speculative cascades, every backup
// store must match its primary key for key, and no prepared transaction may
// remain buffered.
func TestReplicaConvergenceUnderCascades(t *testing.T) {
	for _, scheme := range []Scheme{Speculation, Blocking} {
		t.Run(scheme.String(), func(t *testing.T) {
			const (
				parts      = 2
				clients    = 12
				keysPerTxn = 6
			)
			reg := NewRegistry()
			reg.Register(kvstore.Proc{})
			db, err := Open(
				WithPartitions(parts),
				WithClients(clients),
				WithReplicas(3),
				WithScheme(scheme),
				WithRegistry(reg),
				WithSeed(11),
				WithSetup(func(p PartitionID, s *Store) {
					kvstore.AddSchema(s)
					kvstore.Load(s, p, clients, keysPerTxn)
				}),
				WithWorkloadFactory(func() Generator {
					return &workload.Limit{
						Gen: &workload.Micro{
							Partitions: parts,
							KeysPerTxn: keysPerTxn,
							MPFraction: 0.5,
							AbortProb:  0.1,
							TwoRound:   true,
						},
						N: clients * 30,
					}
				}),
			)
			if err != nil {
				t.Fatal(err)
			}
			db.Run()
			if !db.Quiescent() {
				t.Fatal("run did not quiesce")
			}
			for p := 0; p < parts; p++ {
				for r, bs := range db.BackupStores(PartitionID(p)) {
					if err := storage.DiffStores(db.PartitionStore(PartitionID(p)), bs); err != nil {
						t.Errorf("partition %d backup %d: %v", p, r+1, err)
					}
				}
				for r, b := range db.backups[p] {
					if n := b.BufferedLen(); n != 0 {
						t.Errorf("partition %d backup %d leaked %d buffered transactions", p, r+1, n)
					}
				}
			}
		})
	}
}

// TestStopResume covers the facade wiring of the scheduler's sticky Stop:
// a completion callback stops the run mid-flight, and Resume continues it
// from exactly where it stopped.
func TestStopResume(t *testing.T) {
	const stopAfter = 50
	var completions int
	var db *DB
	reg := NewRegistry()
	reg.Register(kvstore.Proc{})
	db, err := Open(
		WithPartitions(2),
		WithClients(8),
		WithRegistry(reg),
		WithSetup(func(p PartitionID, s *Store) {
			kvstore.AddSchema(s)
			kvstore.Load(s, p, 8, 4)
		}),
		WithWorkloadFactory(func() Generator {
			return &workload.Limit{Gen: &workload.Micro{Partitions: 2, KeysPerTxn: 4}, N: 8 * 40}
		}),
		WithOnComplete(func(ci int, inv *Invocation, reply *Reply) {
			completions++
			if completions == stopAfter {
				db.Stop()
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	db.Run()
	if !db.Stopped() {
		t.Fatal("run finished without stopping")
	}
	if completions != stopAfter {
		t.Fatalf("stopped after %d completions, want %d", completions, stopAfter)
	}
	stoppedAt := db.Now()
	if db.RunFor(Millisecond) != 0 {
		t.Error("stopped DB processed events")
	}
	db.Resume()
	db.Run()
	if db.Now() <= stoppedAt {
		t.Error("resumed run did not advance")
	}
	if got, want := completions, 8*40; got != want {
		t.Errorf("completions = %d, want %d", got, want)
	}
	if !db.Quiescent() {
		t.Error("resumed run did not finish the workload")
	}
}

// TestStopAfterCompletionSweep pins DB.Stop's "after the current event
// completes" contract over many stop points: a completion callback that
// stops the run after N completions must see exactly N, whatever the scheme
// and wherever N falls inside the kernel's time windows.
func TestStopAfterCompletionSweep(t *testing.T) {
	const clients, perClient = 8, 40
	for _, scheme := range []Scheme{Blocking, Speculation, Locking} {
		for stopAfter := 1; stopAfter <= 295; stopAfter += 7 {
			var completions int
			var db *DB
			reg := NewRegistry()
			reg.Register(kvstore.Proc{})
			db, err := Open(
				WithPartitions(2),
				WithClients(clients),
				WithScheme(scheme),
				WithRegistry(reg),
				WithSetup(func(p PartitionID, s *Store) {
					kvstore.AddSchema(s)
					kvstore.Load(s, p, clients, 4)
				}),
				WithWorkloadFactory(func() Generator {
					return &workload.Limit{Gen: &workload.Micro{Partitions: 2, KeysPerTxn: 4}, N: clients * perClient}
				}),
				WithOnComplete(func(ci int, inv *Invocation, reply *Reply) {
					completions++
					if completions == stopAfter {
						db.Stop()
					}
				}),
			)
			if err != nil {
				t.Fatal(err)
			}
			db.Run()
			if !db.Stopped() || completions != stopAfter {
				t.Errorf("%v: stopped=%v after %d completions, want a stop after exactly %d",
					scheme, db.Stopped(), completions, stopAfter)
			}
		}
	}
}
