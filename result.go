package specdb

import (
	"sort"

	"specdb/internal/core"
	"specdb/internal/locks"
	"specdb/internal/metrics"
)

// FailoverEvent records one crash fault and its handling: crash, detection,
// promotion, and the recovery work (buffered transactions resolved,
// in-flight transactions aborted). Its Downtime and RecoveryLatency methods
// derive the paper-style availability numbers.
type FailoverEvent = metrics.FailoverEvent

// RecoveryEvent records one crash-restart fault and its recovery timeline:
// crash, restart, resume, plus the recovery work (checkpoint bytes loaded,
// log bytes and transactions replayed, buffered transactions resolved). Its
// Downtime and RecoveryLatency methods derive the restart-cost numbers.
type RecoveryEvent = metrics.RecoveryEvent

// MigrationEvent records one elastic repartitioning step: donor and
// destination partitions, the trigger/copy/cutover timeline, the migrated
// key range and its size. Its Dip method derives the freeze-to-cutover
// stall — the elasticity analog of a failover's Downtime.
type MigrationEvent = metrics.MigrationEvent

// LatencySummary condenses one latency class into sample count, p50/p95/p99
// quantiles, and the observed maximum.
type LatencySummary = metrics.LatencySummary

// Result summarizes a run's measurement window.
type Result struct {
	// Throughput is completed transactions per second of measurement
	// window (user aborts count as completions, §5.3). For open-ended
	// runs (Measure zero) it is computed over the elapsed virtual time
	// after warm-up.
	Throughput float64
	// Window counters.
	Committed   uint64
	UserAborted uint64
	CommittedSP uint64
	CommittedMP uint64
	// CommittedScan counts committed transactions whose plan declared at
	// least one key-range scan (YCSB-E-style range queries).
	CommittedScan uint64
	Retries       uint64
	// CompletedTotal counts completions over the whole run, warm-up and
	// post-window included. Host-side perf normalization (allocs per
	// transaction, internal/bench.Perf) divides by this, since allocations
	// accrue over the whole run, not just the measurement window.
	CompletedTotal uint64
	// Latency quantiles over the window, all completions merged (the same
	// numbers as Latency's percentiles, kept as flat fields for easy
	// printing).
	P50, P95, P99 Time
	// Latency summarizes issue-to-completion latency over every completion
	// in the window; the split summaries separate committed
	// single-partition, committed multi-partition, and user-aborted
	// transactions — speculation's cascading aborts and locking's stalls
	// live in different cells of that split. Open-loop runs measure from
	// arrival, so window/queue wait counts.
	Latency        LatencySummary
	LatencySP      LatencySummary
	LatencyMP      LatencySummary
	LatencyAborted LatencySummary
	// Shed counts open-loop arrivals dropped inside the window because the
	// issuing client's in-flight window and pending queue were both full
	// (overload backpressure). Always zero for closed-loop runs.
	Shed uint64
	// EngineStats per partition, accumulated across every engine the
	// partition has run (scheme switches retire engines but fold their
	// counters forward).
	EngineStats []core.EngineStats
	// LockStats per partition, accumulated across every locking engine the
	// partition has run; nil when locking never ran.
	LockStats []locks.Stats
	// Utilization: fraction of wall-clock the actor's CPU was busy. A
	// failed-over partition's entry sums its dead primary's actor and the
	// promoted backup's actor (whose busy time includes its backup-era
	// replica application).
	CoordUtilization float64
	PartUtilization  []float64
	// Events is the number of simulation events processed.
	Events uint64
	// Failovers records every injected crash fault and its handling
	// (WithFaults runs only; nil otherwise).
	Failovers []FailoverEvent
	// Downtime is the total time partitions spent without a primary: the
	// sum of crash-to-promotion spans over all primary failovers, plus the
	// crash-to-resume spans over all crash-restarts.
	Downtime Time
	// FailoverResends counts single-partition attempts clients re-sent to
	// a promoted primary after its original target crashed.
	FailoverResends uint64
	// Recovery records every crash-restart fault's recovery timeline
	// (WithDurability + CrashRestart runs only; nil otherwise).
	Recovery []RecoveryEvent
	// ReplayParallelism is the maximum number of partitions that were
	// recovering (restart to resume) at the same instant — the parallel
	// replay width of a multi-partition crash.
	ReplayParallelism int
	// Migrations records every elastic repartitioning step in cutover
	// order (WithElasticity runs only; nil otherwise), each with its
	// trigger/copy/cutover timeline and moved-range size. MigrationDip is
	// the summed freeze-to-cutover stall across them — the elasticity
	// dip timeline's total, analogous to Downtime for faults.
	Migrations   []MigrationEvent
	MigrationDip Time
	// Parallel reports sharded-runtime observability (WithParallelism runs
	// only; nil otherwise). It is the one field that legitimately differs
	// between runs at different shard counts — cross-shard traffic and
	// per-shard busy split depend on placement — so determinism comparisons
	// must exclude it; everything else in Result is width-independent.
	Parallel *ParallelStats
}

// ParallelStats is the sharded runtime's observability surface: what the
// window-barrier protocol cost and how the load spread over shards.
type ParallelStats struct {
	// Shards and Horizon echo the configuration (Horizon resolved to the
	// cost model's one-way latency when it was left zero).
	Shards  int
	Horizon Time
	// Barriers is the number of time windows executed. The window sequence
	// is a function of event times only, so this count is identical at every
	// shard count; Barriers × Shards is the total synchronization points.
	Barriers uint64
	// CrossShardMsgs counts events exchanged between shards at barriers —
	// the coordinator round-trips and multi-partition traffic that cross
	// placement boundaries. Width- and placement-dependent by nature.
	CrossShardMsgs uint64
	// ShardBusy is each shard's summed virtual CPU busy time, the
	// load-balance view: a skewed split means placement (partition group
	// striping, client striping) left shards idle at barriers.
	ShardBusy []Time
}

// Metrics is a live snapshot of a running DB: cumulative whole-run counters
// (they move during warm-up too, unlike Result's window counters) plus
// interval rates covering the span since the previous Snapshot.
type Metrics struct {
	// Now is the virtual time the cluster has been driven to.
	Now Time
	// Scheme is the concurrency control scheme currently running (it
	// changes under SetScheme and the advisor).
	Scheme Scheme
	// Events is the number of simulation events delivered so far.
	Events uint64
	// Cumulative counters since t=0. CommittedMR counts committed
	// multi-partition transactions that took more than one fragment round.
	Completed   uint64
	Committed   uint64
	UserAborted uint64
	CommittedSP uint64
	CommittedMP uint64
	CommittedMR uint64
	Retries     uint64
	// Shed counts open-loop arrivals dropped by full client windows and
	// queues so far (overload backpressure).
	Shed uint64
	// Failovers counts completed backup promotions so far; FailoverResends
	// counts client attempts re-sent to promoted primaries; Restarts counts
	// completed crash-restart recoveries.
	Failovers       int
	FailoverResends uint64
	Restarts        int
	// Barriers and CrossShardMsgs report the sharded runtime's window count
	// and cross-shard exchange volume so far (zero without WithParallelism).
	Barriers       uint64
	CrossShardMsgs uint64
	// Interval covers [previous Snapshot's Now, this snapshot's Now).
	Interval Interval
}

// Interval reports activity between two snapshots: raw counters plus the
// derived workload statistics the scheme advisor consumes (§5.7).
type Interval struct {
	// Start and End bound the interval in virtual time.
	Start, End Time
	// Completed, Committed, UserAborted, CommittedMP and Retries are the
	// interval's counter deltas.
	Completed   uint64
	Committed   uint64
	UserAborted uint64
	CommittedMP uint64
	Retries     uint64
	// Throughput is completions per second of virtual time in the span.
	Throughput float64
	// MPFraction is the fraction of committed transactions that were
	// multi-partition — the measured x-coordinate of Figures 4–10.
	MPFraction float64
	// MultiRoundFraction is the fraction of committed multi-partition
	// transactions that took more than one fragment round (§5.4).
	MultiRoundFraction float64
	// AbortRate is user aborts per completed transaction (§5.3).
	AbortRate float64
	// ConflictRate is deadlock/timeout retries per completed transaction
	// (§5.2; only the locking scheme retries).
	ConflictRate float64
	// Shed is the interval's open-loop backpressure drop count.
	Shed uint64
	// P50, P95 and P99 are completion-latency quantiles over the
	// interval's completions (all classes merged), from the run-total
	// histogram delta — accurate to bucket resolution.
	P50, P95, P99 Time
}

// Duration returns the interval's length.
func (iv Interval) Duration() Time { return iv.End - iv.Start }

// Result collects the measurement-window summary. It may be called mid-run
// (after RunFor/Step) for a partial view or after Run for the final one.
func (db *DB) Result() Result {
	win := db.collector.Window
	wl := &db.collector.WindowLat
	all := wl.Merged()
	aborted := *wl.Hist(false, true)
	aborted.Merge(wl.Hist(true, true))
	res := Result{
		Throughput:     db.collector.Throughput(),
		Committed:      win.Committed,
		UserAborted:    win.UserAborted,
		CommittedSP:    win.CommittedSP,
		CommittedMP:    win.CommittedMP,
		CommittedScan:  win.CommittedScan,
		Retries:        win.Retries,
		Shed:           win.Shed,
		CompletedTotal: db.collector.Totals.Completed(),
		P50:            all.Quantile(0.50),
		P95:            all.Quantile(0.95),
		P99:            all.Quantile(0.99),
		Latency:        metrics.Summarize(&all),
		LatencySP:      metrics.Summarize(wl.Hist(false, false)),
		LatencyMP:      metrics.Summarize(wl.Hist(true, false)),
		LatencyAborted: metrics.Summarize(&aborted),
		Events:         db.sch.DeliveredCount(),
	}
	if db.cfg.parallel != nil {
		res.Parallel = &ParallelStats{
			Shards:         db.sch.NumShards(),
			Horizon:        db.sch.Horizon(),
			Barriers:       db.sch.Barriers(),
			CrossShardMsgs: db.sch.CrossShardMsgs(),
			ShardBusy:      db.sch.ShardBusy(),
		}
	}
	if db.cfg.measure == 0 {
		// Open-ended run: rate over elapsed post-warm-up virtual time.
		res.Throughput = 0
		if el := db.cursor - db.cfg.warmup; el > 0 {
			res.Throughput = float64(db.collector.Completed()) / (float64(el) / float64(Second))
		}
	}
	elapsed := db.sch.Now()
	if elapsed > 0 {
		res.CoordUtilization = float64(db.sch.BusyTime(db.coordID)) / float64(elapsed)
	}
	for p := range db.parts {
		stats := db.parts[p].EngineTotals()
		busy := db.sch.BusyTime(db.partIDs[p])
		if live := db.livePrimary(p); live != db.parts[p] {
			// Failed-over partition: fold in the promoted engine's work
			// (and its actor's busy time) on top of the dead primary's
			// pre-crash counters.
			stats = stats.Add(live.EngineTotals())
			for i, b := range db.backups[p] {
				if b.Promoted() != nil {
					busy += db.sch.BusyTime(db.backupIDs[p][i])
				}
			}
			if r := db.restarters[p]; r != nil && r.Promoted() != nil {
				busy += db.sch.BusyTime(db.restarterIDs[p])
			}
		}
		res.EngineStats = append(res.EngineStats, stats)
		if elapsed > 0 {
			res.PartUtilization = append(res.PartUtilization, float64(busy)/float64(elapsed))
		}
	}
	res.LockStats = db.lockStats()
	if len(db.collector.Failovers) > 0 {
		res.Failovers = append([]FailoverEvent(nil), db.collector.Failovers...)
		for _, e := range res.Failovers {
			res.Downtime += e.Downtime()
		}
	}
	res.FailoverResends = db.collector.FailoverResends
	if len(db.collector.Recoveries) > 0 {
		res.Recovery = append([]RecoveryEvent(nil), db.collector.Recoveries...)
		for _, e := range res.Recovery {
			res.Downtime += e.Downtime()
		}
		res.ReplayParallelism = replayParallelism(res.Recovery)
	}
	if len(db.collector.Migrations) > 0 {
		res.Migrations = append([]MigrationEvent(nil), db.collector.Migrations...)
		for _, e := range res.Migrations {
			res.MigrationDip += e.Dip()
		}
	}
	return res
}

// replayParallelism returns the maximum number of recoveries whose
// restart-to-resume intervals overlapped at one instant: sweep the interval
// endpoints in time order, counting starts before ends at ties (a recovery
// resuming exactly when another restarts still overlaps it at that instant).
func replayParallelism(evs []RecoveryEvent) int {
	type edge struct {
		at    Time
		delta int
	}
	var edges []edge
	for _, e := range evs {
		if e.ResumedAt == 0 || e.RestartedAt == 0 {
			continue
		}
		edges = append(edges, edge{e.RestartedAt, +1}, edge{e.ResumedAt, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta > edges[j].delta
	})
	cur, max := 0, 0
	for _, e := range edges {
		cur += e.delta
		if cur > max {
			max = cur
		}
	}
	return max
}
