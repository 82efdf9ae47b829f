package specdb

import (
	"testing"

	"specdb/internal/storage"
	"specdb/internal/workload"
)

// This file is the serializability-oracle harness: every scheme runs
// conflict-heavy, skewed and TPC-C workloads with per-partition value-trace
// recording enabled (withHistory), and the recorded history of each
// partition is verified offline against a serial replay in commit order (see
// internal/oracle). A deliberately broken engine — OCC with validation
// disabled — is the negative control proving the oracle has teeth.

// initialStores replays the cluster's setup into fresh stores, capturing the
// state each partition started from.
func initialStores(parts int, setup func(PartitionID, *Store)) []*storage.Store {
	out := make([]*storage.Store, parts)
	for p := range out {
		s := storage.NewStore()
		setup(PartitionID(p), s)
		out[p] = s
	}
	return out
}

// verifyOracle opens the cluster with history recording, runs it to
// completion and checks every partition's trace against the oracle.
func verifyOracle(t *testing.T, setup func(PartitionID, *Store), opts ...Option) {
	t.Helper()
	db := mustOpen(t, append(opts, withHistory())...)
	db.Run()
	initial := initialStores(len(db.histories), setup)
	committed := 0
	for p, h := range db.histories {
		committed += h.Len()
		if err := h.Verify(initial[p], db.PartitionStore(PartitionID(p))); err != nil {
			t.Errorf("partition %d: %v", p, err)
		}
	}
	if committed == 0 {
		t.Fatal("oracle recorded no committed transactions")
	}
}

// TestOracleMicroAllSchemes verifies serializability of every scheme on the
// microbenchmark's two hostile regimes: explicit hot-key conflicts with user
// aborts and two-round transactions, and Zipfian key skew. Both mix in
// declared read-only transactions so MVCC's snapshot path is audited too.
func TestOracleMicroAllSchemes(t *testing.T) {
	workloads := []struct {
		name string
		mk   func() Generator
	}{
		{"conflicts", func() Generator {
			return &workload.Limit{Gen: &workload.Micro{
				Partitions: 2, KeysPerTxn: testKeys, MPFraction: 0.4,
				ConflictProb: 0.5, Pinned: true, TwoRound: true,
				AbortProb: 0.1, ReadFraction: 0.25,
			}, N: 400}
		}},
		{"skew", func() Generator {
			return &workload.Limit{Gen: &workload.Micro{
				Partitions: 2, KeysPerTxn: testKeys, MPFraction: 0.3,
				KeySkew: 0.99, ReadFraction: 0.25,
			}, N: 400}
		}},
	}
	for _, w := range workloads {
		for _, scheme := range allSchemes {
			t.Run(w.name+"/"+scheme.String(), func(t *testing.T) {
				verifyOracle(t, kvSetup(testClients), drainOpts(scheme, w.mk())...)
			})
		}
	}
}

// TestOracleScanAllSchemes verifies serializability of every scheme on
// scan-heavy mixes: YCSB-E-style short range scans (single- and
// multi-partition) interleaved with the update stream, uniform and Zipfian.
// The oracle replays every recorded scan against the serial store and
// compares the full key/value sequences, so a phantom — a scan observing a
// range state no serial order could produce — fails here even though
// point-read replay would pass.
func TestOracleScanAllSchemes(t *testing.T) {
	workloads := []struct {
		name string
		mk   func() Generator
	}{
		{"scan", func() Generator {
			return &workload.Limit{Gen: &workload.Micro{
				Partitions: 2, KeysPerTxn: testKeys, MPFraction: 0.4,
				ScanFraction: 0.4, ScanLength: 16,
				ConflictProb: 0.5, Pinned: true, AbortProb: 0.05,
			}, N: 400}
		}},
		{"scan-skew", func() Generator {
			return &workload.Limit{Gen: &workload.Micro{
				Partitions: 2, KeysPerTxn: testKeys, MPFraction: 0.3,
				ScanFraction: 0.4, ScanLength: 16, KeySkew: 0.99,
				ReadFraction: 0.2,
			}, N: 400}
		}},
	}
	for _, w := range workloads {
		for _, scheme := range allSchemes {
			t.Run(w.name+"/"+scheme.String(), func(t *testing.T) {
				opts := append(drainOpts(scheme, w.mk()), WithSetup(kvOrderedSetup(testClients)))
				verifyOracle(t, kvOrderedSetup(testClients), opts...)
			})
		}
	}
}

// TestOracleTPCCAllSchemes verifies serializability of every scheme on the
// TPC-C mix — multi-round distributed transactions, user aborts and hot
// district rows — independently of the TPC-C consistency conditions.
func TestOracleTPCCAllSchemes(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			opts, _, loader := tpccOpts(scheme, 4, 600)
			verifyOracle(t, loader.Load, opts...)
		})
	}
}

// TestOracleFlagsBrokenEngine is the negative control: OCC with commit-time
// validation disabled commits transactions whose reads went stale, and the
// oracle must reject at least one partition's history. If this test fails,
// the oracle is vacuous.
//
// The workload needs shared reads to expose the hole: the microbenchmark's
// read-write transactions read with update intent, which the engine's (still
// enabled) eager write-write rule serializes on its own. Declared read-only
// transactions read shared — multi-partition ones hold their read sets
// across a 2PC round trip, exactly the window where a skipped backward
// validation admits stale and dirty reads.
func TestOracleFlagsBrokenEngine(t *testing.T) {
	gen := &workload.Limit{Gen: &workload.Micro{
		Partitions: 2, KeysPerTxn: testKeys, MPFraction: 0.5,
		ConflictProb: 0.8, Pinned: true, TwoRound: true, AbortProb: 0.1,
		ReadFraction: 0.4,
	}, N: 400}
	opts := append(drainOpts(OCC, gen), withHistory(), withBrokenOCC())
	db := mustOpen(t, opts...)
	db.Run()
	initial := initialStores(len(db.histories), kvSetup(testClients))
	for p, h := range db.histories {
		if err := h.Verify(initial[p], db.PartitionStore(PartitionID(p))); err != nil {
			t.Logf("oracle correctly flagged partition %d: %v", p, err)
			return
		}
	}
	t.Fatal("oracle passed an engine that skips validation")
}

// TestOracleFlagsPhantomScans is the scan edition of the negative control:
// OCC with validation disabled admits phantom scans — a multi-partition
// scan's range can be written and committed by another transaction while the
// scanner sits in its 2PC window, and with backward validation skipped the
// scanner commits a range observation no serial order produced. The oracle's
// scan replay must reject at least one partition's history; if it passes,
// the phantom check is vacuous.
func TestOracleFlagsPhantomScans(t *testing.T) {
	gen := &workload.Limit{Gen: &workload.Micro{
		Partitions: 2, KeysPerTxn: testKeys, MPFraction: 0.6,
		ScanFraction: 0.4, ScanLength: 16,
		ConflictProb: 0.8, Pinned: true, TwoRound: true,
	}, N: 600}
	opts := append(drainOpts(OCC, gen),
		WithSetup(kvOrderedSetup(testClients)), withHistory(), withBrokenOCC())
	db := mustOpen(t, opts...)
	db.Run()
	initial := initialStores(len(db.histories), kvOrderedSetup(testClients))
	for p, h := range db.histories {
		if err := h.Verify(initial[p], db.PartitionStore(PartitionID(p))); err != nil {
			t.Logf("oracle correctly flagged partition %d: %v", p, err)
			return
		}
	}
	t.Fatal("oracle passed phantom-admitting scans (validation disabled)")
}

// TestOracleShardedAllSchemes re-runs the oracle on the sharded parallel
// runtime: every scheme at Shards=4 over the conflict-heavy micro mix.
// Histories are recorded by the partition actors themselves, so recording
// is shard-local and needs no changes; what this pins is that fanning the
// event loop over OS threads preserves a serializable commit order. The
// bounded Limit generator keeps shared state across clients and is
// restricted to a single shard, so the run is bounded by a measured window
// instead and drained to quiescence through an empty script before the
// stores are compared.
func TestOracleShardedAllSchemes(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			gen := &workload.Micro{
				Partitions: 2, KeysPerTxn: testKeys, MPFraction: 0.4,
				ConflictProb: 0.5, Pinned: true, TwoRound: true,
				AbortProb: 0.1, ReadFraction: 0.25,
			}
			db := mustOpen(t, append(drainOpts(scheme, gen),
				WithParallelism(ParallelismConfig{Shards: 4}),
				withHistory())...)
			db.RunFor(20 * Millisecond)
			if err := db.SetWorkload(&workload.Script{}); err != nil {
				t.Fatal(err)
			}
			db.Run() // empty script: drains to quiescence
			initial := initialStores(len(db.histories), kvSetup(testClients))
			committed := 0
			for p, h := range db.histories {
				committed += h.Len()
				if err := h.Verify(initial[p], db.PartitionStore(PartitionID(p))); err != nil {
					t.Errorf("partition %d: %v", p, err)
				}
			}
			if committed == 0 {
				t.Fatal("oracle recorded no committed transactions")
			}
		})
	}
}
