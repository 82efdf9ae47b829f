package specdb_test

import (
	"bytes"
	"reflect"
	"testing"

	"specdb"
	"specdb/internal/kvstore"
	"specdb/internal/workload"
)

// fuzzConfig is a fuzz input decoded into a valid Open configuration. Every
// raw value is clamped into range rather than rejected, so all inputs
// exercise a run.
type fuzzConfig struct {
	seed       int64
	scheme     specdb.Scheme
	partitions int
	clients    int
	mpFrac     float64
	conflict   float64
	abortProb  float64
	twoRound   bool
	replicas   int
	faultKind  uint8 // 0 none, 1 crash primary, 2 crash backup, 3 crash-restart
	openLoop   bool
	rate       float64
	window     int
	keySkew    float64
	durable    bool
	ckptMs     int
	readFrac   float64
	scanFrac   float64
	adaptive   bool
	// shards is the WithParallelism width: 0 omits the option entirely,
	// which runs the same kernel at width 1 with no Result.Parallel, so 0
	// and 1 select the same event order; >= 1 sets the width. Results must
	// be identical at every width.
	shards int
	// elastic turns on WithElasticity with the default auto trigger:
	// migrations (and their command-log records, under durable) join the
	// determinism surface. partSkew makes the trigger's hot partition.
	elastic  bool
	partSkew float64
}

// decode clamps raw fuzz values into a valid configuration, resolving the
// cross-field constraints Open would reject (locking with faults, faults with
// the advisor, fault schedules without backups, open-loop windows with
// faults).
func decode(seed int64, scheme, partitions, clients, mpPct, conflictPct, abortPct uint8,
	twoRound bool, replicas, faultKind uint8, openLoop bool, rate uint32, window, skewPct uint8,
	durable bool, ckptMs uint8, readPct uint8, adaptive bool, shards uint8, scanPct uint8,
	elastic uint8) fuzzConfig {
	c := fuzzConfig{
		seed:       seed,
		scheme:     specdb.Scheme(int(scheme) % 5),
		partitions: 1 + int(partitions)%3,
		clients:    1 + int(clients)%8,
		mpFrac:     float64(mpPct%101) / 100,
		conflict:   float64(conflictPct%101) / 100,
		abortProb:  float64(abortPct%101) / 100 / 4, // ≤ 25%, keeps runs busy
		twoRound:   twoRound,
		replicas:   1 + int(replicas)%3,
		faultKind:  faultKind % 4,
		openLoop:   openLoop,
		rate:       1000 + float64(rate%200_000),
		window:     1 + int(window)%4,
		keySkew:    float64(skewPct%100) / 100,
		durable:    durable,
		ckptMs:     1 + int(ckptMs)%8,
		readFrac:   float64(readPct%101) / 100,
		scanFrac:   float64(scanPct%101) / 100,
		adaptive:   adaptive,
		shards:     []int{0, 1, 2, 4}[shards%4],
		elastic:    elastic%2 == 1,
	}
	if c.keySkew > 0.99 {
		c.keySkew = 0.99
	}
	if c.elastic {
		if c.partitions < 2 {
			c.partitions = 2 // a split needs a destination
		}
		c.scanFrac = 0 // elastic routing rejects scan workloads
		c.faultKind = 0
		// Home-partition popularity concentrates on partition 0 so the
		// saturation trigger actually fires and migrations join the
		// compared surface.
		c.partSkew = 0.9
	}
	if c.faultKind != 0 {
		if c.scheme == specdb.Locking {
			c.faultKind = 0 // faults are not supported under locking
		} else if c.adaptive {
			c.faultKind = 0 // the advisor may switch to locking mid-run
		} else {
			c.window = 1 // recovery resend dedup requires one in flight
			if c.faultKind == 3 {
				// Crash-restart recovers from the command log, not a
				// backup: it requires durability and an unreplicated
				// partition.
				c.durable = true
				c.replicas = 1
			} else if c.replicas < 2 {
				c.replicas = 2 // crash schedules need a backup
			}
		}
	}
	return c
}

// open assembles a DB from a decoded config. Generators come fresh per call
// so the two runs of a pair share no state.
func (c fuzzConfig) open(t *testing.T) *specdb.DB {
	t.Helper()
	reg := specdb.NewRegistry()
	reg.Register(kvstore.Proc{})
	opts := []specdb.Option{
		specdb.WithPartitions(c.partitions),
		specdb.WithClients(c.clients),
		specdb.WithScheme(c.scheme),
		specdb.WithReplicas(c.replicas),
		specdb.WithSeed(c.seed),
		specdb.WithWarmup(2 * specdb.Millisecond),
		specdb.WithMeasure(10 * specdb.Millisecond),
		specdb.WithRegistry(reg),
		specdb.WithSetup(func(p specdb.PartitionID, s *specdb.Store) {
			// Scan-bearing configs run the ordered layout, like production
			// scan workloads would.
			if c.scanFrac > 0 {
				kvstore.AddOrderedSchema(s)
			} else {
				kvstore.AddSchema(s)
			}
			kvstore.Load(s, p, 8, 4)
		}),
		specdb.WithWorkloadFactory(func() specdb.Generator {
			return &workload.Micro{
				Partitions:    c.partitions,
				KeysPerTxn:    4,
				MPFraction:    c.mpFrac,
				ConflictProb:  c.conflict,
				AbortProb:     c.abortProb,
				TwoRound:      c.twoRound,
				KeySkew:       c.keySkew,
				PartitionSkew: c.partSkew,
				ReadFraction:  c.readFrac,
				ScanFraction:  c.scanFrac,
				ScanLength:    6,
			}
		}),
	}
	if c.adaptive {
		opts = append(opts, specdb.WithAdvisor(specdb.AdvisorConfig{Interval: 5 * specdb.Millisecond}))
	}
	switch c.faultKind {
	case 1:
		opts = append(opts, specdb.WithFaults(specdb.CrashPrimary(0, 4*specdb.Millisecond)))
	case 2:
		opts = append(opts, specdb.WithFaults(specdb.CrashBackup(0, 1, 4*specdb.Millisecond)))
	case 3:
		opts = append(opts, specdb.WithFaults(specdb.CrashRestart(0, 4*specdb.Millisecond)))
	}
	if c.durable {
		opts = append(opts, specdb.WithDurability(specdb.DurabilityConfig{
			CheckpointInterval: specdb.Time(c.ckptMs) * specdb.Millisecond,
		}))
	}
	if c.openLoop {
		opts = append(opts, specdb.WithOpenLoop(specdb.OpenLoopConfig{
			Rate:   c.rate,
			Window: c.window,
			Queue:  4,
		}))
	}
	if c.shards > 0 {
		opts = append(opts, specdb.WithParallelism(specdb.ParallelismConfig{Shards: c.shards}))
	}
	if c.elastic {
		// Eager thresholds: the fuzz windows are short (12 ms) and the
		// client pool small, so the default trigger would rarely fire and
		// migrations would drop out of the compared surface.
		opts = append(opts, specdb.WithElasticity(specdb.ElasticityConfig{
			Interval:           4 * specdb.Millisecond,
			SaturationFraction: 0.4,
			SaturationRatio:    1.2,
		}))
	}
	db, err := specdb.Open(opts...)
	if err != nil {
		t.Fatalf("decoded config must be valid: %v (%+v)", err, c)
	}
	return db
}

// FuzzDeterminism is the property gate for the simulator's core promise:
// a Result is a pure function of its options. Any valid configuration —
// scheme, workload shape, skew, fault schedule, durability, open-loop
// arrivals — run twice from scratch must produce bit-identical Results, and
// a durable configuration must also produce bit-identical command-log bytes
// on every partition. The seed corpus (f.Add plus testdata/fuzz) pins all
// five schemes, all three fault kinds, the durable logging path, the
// open-loop/Zipfian paths, and advisor-driven scheme switches, and runs on
// every plain `go test`.
func FuzzDeterminism(f *testing.F) {
	// scheme: 0 blocking, 1 speculation, 2 locking, 3 mvcc, 4 occ (see
	// specdb consts). Baseline closed-loop uniform, one per scheme.
	f.Add(int64(42), uint8(0), uint8(1), uint8(7), uint8(20), uint8(0), uint8(0), false, uint8(0), uint8(0), false, uint32(0), uint8(0), uint8(0), false, uint8(0), uint8(0), false, uint8(0), uint8(0), uint8(0))
	f.Add(int64(7), uint8(1), uint8(1), uint8(7), uint8(50), uint8(0), uint8(8), true, uint8(0), uint8(0), false, uint32(0), uint8(0), uint8(0), false, uint8(0), uint8(0), false, uint8(0), uint8(0), uint8(0))
	f.Add(int64(9), uint8(2), uint8(1), uint8(5), uint8(30), uint8(60), uint8(0), false, uint8(0), uint8(0), false, uint32(0), uint8(0), uint8(0), false, uint8(0), uint8(0), false, uint8(0), uint8(0), uint8(0))
	// Fault schedules: primary crash under speculation and blocking,
	// backup crash under speculation.
	f.Add(int64(3), uint8(1), uint8(1), uint8(7), uint8(40), uint8(0), uint8(0), false, uint8(1), uint8(1), false, uint32(0), uint8(0), uint8(0), false, uint8(0), uint8(0), false, uint8(0), uint8(0), uint8(0))
	f.Add(int64(4), uint8(0), uint8(1), uint8(7), uint8(40), uint8(0), uint8(0), false, uint8(1), uint8(1), false, uint32(0), uint8(0), uint8(0), false, uint8(0), uint8(0), false, uint8(0), uint8(0), uint8(0))
	f.Add(int64(5), uint8(1), uint8(1), uint8(7), uint8(20), uint8(0), uint8(4), false, uint8(1), uint8(2), false, uint32(0), uint8(0), uint8(0), false, uint8(0), uint8(0), false, uint8(0), uint8(0), uint8(0))
	// Open-loop: underload and overload windows, all three schemes.
	f.Add(int64(11), uint8(1), uint8(1), uint8(7), uint8(10), uint8(0), uint8(0), false, uint8(0), uint8(0), true, uint32(20_000), uint8(2), uint8(0), false, uint8(0), uint8(0), false, uint8(0), uint8(0), uint8(0))
	f.Add(int64(12), uint8(2), uint8(1), uint8(7), uint8(10), uint8(0), uint8(0), false, uint8(0), uint8(0), true, uint32(150_000), uint8(3), uint8(0), false, uint8(0), uint8(0), false, uint8(0), uint8(0), uint8(0))
	f.Add(int64(13), uint8(0), uint8(1), uint8(3), uint8(0), uint8(0), uint8(0), false, uint8(0), uint8(0), true, uint32(80_000), uint8(0), uint8(0), false, uint8(0), uint8(0), false, uint8(0), uint8(0), uint8(0))
	// Zipfian skew, closed and open loop, with replication.
	f.Add(int64(21), uint8(1), uint8(1), uint8(7), uint8(20), uint8(0), uint8(0), false, uint8(1), uint8(0), false, uint32(0), uint8(0), uint8(90), false, uint8(0), uint8(0), false, uint8(0), uint8(0), uint8(0))
	f.Add(int64(22), uint8(2), uint8(1), uint8(7), uint8(20), uint8(0), uint8(0), false, uint8(0), uint8(0), true, uint32(60_000), uint8(1), uint8(99), false, uint8(0), uint8(0), false, uint8(0), uint8(0), uint8(0))
	// Open loop + fault + replication together.
	f.Add(int64(31), uint8(1), uint8(1), uint8(5), uint8(30), uint8(0), uint8(0), false, uint8(1), uint8(1), true, uint32(40_000), uint8(0), uint8(50), false, uint8(0), uint8(0), false, uint8(0), uint8(0), uint8(0))
	// Durable command logging: fault-free under all three schemes (log
	// bytes must still be bit-identical), and crash-restart under
	// speculation and blocking with different checkpoint intervals.
	f.Add(int64(51), uint8(1), uint8(1), uint8(7), uint8(30), uint8(0), uint8(0), false, uint8(0), uint8(0), false, uint32(0), uint8(0), uint8(0), true, uint8(2), uint8(0), false, uint8(0), uint8(0), uint8(0))
	f.Add(int64(52), uint8(2), uint8(1), uint8(5), uint8(20), uint8(40), uint8(0), false, uint8(0), uint8(0), false, uint32(0), uint8(0), uint8(0), true, uint8(4), uint8(0), false, uint8(0), uint8(0), uint8(0))
	f.Add(int64(53), uint8(1), uint8(1), uint8(7), uint8(40), uint8(0), uint8(0), false, uint8(0), uint8(3), false, uint32(0), uint8(0), uint8(0), true, uint8(1), uint8(0), false, uint8(0), uint8(0), uint8(0))
	f.Add(int64(54), uint8(0), uint8(1), uint8(7), uint8(40), uint8(0), uint8(4), false, uint8(0), uint8(3), false, uint32(0), uint8(0), uint8(0), true, uint8(5), uint8(0), false, uint8(0), uint8(0), uint8(0))
	f.Add(int64(55), uint8(1), uint8(2), uint8(7), uint8(30), uint8(0), uint8(0), true, uint8(0), uint8(3), true, uint32(30_000), uint8(0), uint8(60), true, uint8(2), uint8(0), false, uint8(0), uint8(0), uint8(0))
	// The optimistic engines. MVCC under a read-heavy mix with conflicts
	// (kill/retry + backoff on the write side, snapshot reads on the read
	// side), and with Zipfian skew + replication; OCC under hot-key
	// conflicts with two-round transactions, and under open-loop arrivals.
	f.Add(int64(61), uint8(3), uint8(1), uint8(7), uint8(30), uint8(50), uint8(4), false, uint8(0), uint8(0), false, uint32(0), uint8(0), uint8(0), false, uint8(0), uint8(60), false, uint8(0), uint8(0), uint8(0))
	f.Add(int64(62), uint8(3), uint8(1), uint8(7), uint8(20), uint8(0), uint8(0), false, uint8(1), uint8(0), false, uint32(0), uint8(0), uint8(95), false, uint8(0), uint8(40), false, uint8(0), uint8(0), uint8(0))
	f.Add(int64(63), uint8(4), uint8(1), uint8(7), uint8(40), uint8(60), uint8(8), true, uint8(0), uint8(0), false, uint32(0), uint8(0), uint8(0), false, uint8(0), uint8(25), false, uint8(0), uint8(0), uint8(0))
	f.Add(int64(64), uint8(4), uint8(1), uint8(7), uint8(20), uint8(30), uint8(0), false, uint8(0), uint8(0), true, uint32(50_000), uint8(1), uint8(0), false, uint8(0), uint8(30), false, uint8(0), uint8(0), uint8(0))
	// Durable logging under the optimistic engines: retried transactions
	// must still produce bit-identical log bytes.
	f.Add(int64(65), uint8(3), uint8(1), uint8(7), uint8(30), uint8(40), uint8(0), false, uint8(0), uint8(0), false, uint32(0), uint8(0), uint8(0), true, uint8(3), uint8(50), false, uint8(0), uint8(0), uint8(0))
	f.Add(int64(66), uint8(4), uint8(1), uint8(5), uint8(30), uint8(40), uint8(4), true, uint8(0), uint8(0), false, uint32(0), uint8(0), uint8(0), true, uint8(2), uint8(30), false, uint8(0), uint8(0), uint8(0))
	// Advisor-driven switches: start on blocking with a workload the model
	// steers to OCC (conflict-free two-round MP), and start on locking with
	// a read-heavy mix that steers to MVCC. Switch points and all results
	// must replay bit-identically.
	f.Add(int64(71), uint8(0), uint8(1), uint8(7), uint8(60), uint8(0), uint8(0), true, uint8(0), uint8(0), false, uint32(0), uint8(0), uint8(0), false, uint8(0), uint8(0), true, uint8(0), uint8(0), uint8(0))
	f.Add(int64(72), uint8(2), uint8(1), uint8(7), uint8(20), uint8(0), uint8(0), false, uint8(0), uint8(0), false, uint32(0), uint8(0), uint8(0), false, uint8(0), uint8(80), true, uint8(0), uint8(0), uint8(0))
	// The sharded parallel runtime: widths 2 and 4 over multi-partition
	// speculation with a crash fault, durable logging, open-loop arrivals,
	// and MVCC. Each seed also replays at Shards=1 and must match.
	f.Add(int64(81), uint8(1), uint8(2), uint8(7), uint8(40), uint8(0), uint8(0), false, uint8(1), uint8(1), false, uint32(0), uint8(0), uint8(0), false, uint8(0), uint8(0), false, uint8(2), uint8(0), uint8(0))
	f.Add(int64(82), uint8(0), uint8(2), uint8(7), uint8(30), uint8(0), uint8(4), false, uint8(0), uint8(3), false, uint32(0), uint8(0), uint8(0), true, uint8(2), uint8(0), false, uint8(3), uint8(0), uint8(0))
	f.Add(int64(83), uint8(2), uint8(2), uint8(7), uint8(10), uint8(0), uint8(0), false, uint8(0), uint8(0), true, uint32(80_000), uint8(2), uint8(90), false, uint8(0), uint8(0), false, uint8(3), uint8(0), uint8(0))
	f.Add(int64(84), uint8(3), uint8(2), uint8(7), uint8(30), uint8(40), uint8(0), false, uint8(0), uint8(0), false, uint32(0), uint8(0), uint8(0), true, uint8(3), uint8(50), false, uint8(2), uint8(0), uint8(0))
	// Range scans (YCSB-E mixes on the ordered layout): locking's shared
	// range locks, MVCC snapshot scans at width 2, and OCC phantom
	// validation with two-round conflicts at width 4. Scans run twice must
	// produce bit-identical Results including the scan commit counters.
	f.Add(int64(91), uint8(2), uint8(1), uint8(7), uint8(30), uint8(40), uint8(0), false, uint8(0), uint8(0), false, uint32(0), uint8(0), uint8(0), false, uint8(0), uint8(20), false, uint8(0), uint8(40), uint8(0))
	f.Add(int64(92), uint8(3), uint8(1), uint8(7), uint8(30), uint8(40), uint8(0), false, uint8(0), uint8(0), false, uint32(0), uint8(0), uint8(0), false, uint8(0), uint8(30), false, uint8(2), uint8(50), uint8(0))
	f.Add(int64(93), uint8(4), uint8(1), uint8(7), uint8(40), uint8(50), uint8(0), true, uint8(0), uint8(0), false, uint32(0), uint8(0), uint8(0), false, uint8(0), uint8(0), false, uint8(3), uint8(40), uint8(0))
	// Elastic repartitioning: a hot partition 0 (the decoder pins partition
	// skew 0.9 when elastic is on) splits mid-run under the default auto
	// trigger. One seed composes with durable logging — the migration
	// records are part of the compared log bytes — and one runs on the
	// sharded runtime at width 2, replayed against width 1.
	f.Add(int64(101), uint8(1), uint8(1), uint8(7), uint8(10), uint8(0), uint8(0), false, uint8(0), uint8(0), false, uint32(0), uint8(0), uint8(0), true, uint8(2), uint8(0), false, uint8(0), uint8(0), uint8(1))
	f.Add(int64(102), uint8(0), uint8(2), uint8(7), uint8(20), uint8(0), uint8(0), false, uint8(0), uint8(0), false, uint32(0), uint8(0), uint8(0), false, uint8(0), uint8(0), false, uint8(2), uint8(0), uint8(1))

	f.Fuzz(func(t *testing.T, seed int64, scheme, partitions, clients, mpPct, conflictPct, abortPct uint8,
		twoRound bool, replicas, faultKind uint8, openLoop bool, rate uint32, window, skewPct uint8,
		durable bool, ckptMs uint8, readPct uint8, adaptive bool, shards uint8, scanPct uint8,
		elastic uint8) {
		c := decode(seed, scheme, partitions, clients, mpPct, conflictPct, abortPct,
			twoRound, replicas, faultKind, openLoop, rate, window, skewPct, durable, ckptMs,
			readPct, adaptive, shards, scanPct, elastic)
		dbA, dbB := c.open(t), c.open(t)
		a, b := dbA.Run(), dbB.Run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("same options, different Results:\n%+v\nvs\n%+v\nconfig %+v", a, b, c)
		}
		if c.shards > 1 {
			// Width equivalence: the same configuration at width 1
			// must produce the same Result.
			// Parallel is the one legitimately width-dependent field.
			c1 := c
			c1.shards = 1
			one := c1.open(t).Run()
			one.Parallel = nil
			norm := a
			norm.Parallel = nil
			if !reflect.DeepEqual(norm, one) {
				t.Fatalf("shards=%d diverges from shards=1:\n%+v\nvs\n%+v\nconfig %+v", c.shards, norm, one, c)
			}
		}
		// The command log's byte transcript is part of the determinism
		// surface: same options, same bytes, partition by partition.
		for p := 0; p < c.partitions; p++ {
			la, lb := dbA.LogBytes(specdb.PartitionID(p)), dbB.LogBytes(specdb.PartitionID(p))
			if !bytes.Equal(la, lb) {
				t.Fatalf("partition %d log bytes diverge (%d vs %d bytes), config %+v", p, len(la), len(lb), c)
			}
		}
	})
}
