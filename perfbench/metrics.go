package main

import (
	"specdb/internal/core"
	"specdb/internal/locks"
)

// endToEnd fills the metrics a user of the system sees. Host metrics come
// from the wall clock, rusage and the Go heap over the measured window, with
// times scaled to the reference memory speed (see probe.go); virtual metrics
// come from the Result and never mix with host numbers.
func endToEnd(m map[string]metric, rounds []*roundOut) {
	var rate, cpu, setup, heap []float64
	var txns, allocs, bytes uint64
	for _, o := range rounds {
		for _, s := range o.setupS {
			setup = append(setup, s/o.setupSlow)
		}
		heap = append(heap, o.heapMB)
		for _, s := range o.slices {
			if s.txns == 0 {
				continue
			}
			rate = append(rate, float64(s.txns)*s.slow/s.wall.Seconds())
			cpu = append(cpu, float64(s.cpu.Microseconds())/s.slow/float64(s.txns))
			txns += s.txns
			allocs += s.allocs
			bytes += s.bytes
		}
	}
	m["host_txn_per_s"] = metric{median(rate), "1/s"}
	m["host_cpu_us_per_txn"] = metric{median(cpu), "us"}
	m["allocs_per_txn"] = metric{ratio(allocs, txns), "count"}
	m["alloc_bytes_per_txn"] = metric{ratio(bytes, txns), "B"}
	m["heap_mb"] = metric{median(heap), "MB"}
	m["setup_s"] = metric{median(setup), "s"}

	o := rounds[0]
	r := o.res
	m["virt_tps"] = metric{r.Throughput, "1/s"}
	m["virt_p50_us"] = metric{o.p50, "us"}
	m["virt_p99_us"] = metric{o.p99, "us"}
	m["virt_lat_n"] = metric{float64(o.latN), "count"}
	done := r.Committed + r.UserAborted
	m["ok_frac"] = metric{ratio(done, done+r.Retries), "frac"}
}

// perLayer fills the per-layer metrics from the traced rounds (whose virtual
// results equal the untraced rounds') and the replays. Counters come from
// the first traced round's Results; spans cover every traced round.
func perLayer(m map[string]metric, plain, traced []*roundOut, tr *tracer) {
	t := traced[0]
	n := t.completed
	perTxn := func(v uint64) float64 { return ratio(v, n) }
	var nAll uint64
	for _, o := range traced {
		nAll += o.completed
	}
	perSpanTxn := func(v uint64) float64 { return ratio(v, nAll) }
	es, esBase := sumEngine(t.res.EngineStats), sumEngine(t.base.EngineStats)
	ls, lsBase := sumLocks(t.res.LockStats), sumLocks(t.base.LockStats)

	acquires := ls.Acquires - lsBase.Acquires
	m["locks.acquires_per_txn"] = metric{perTxn(acquires), "count"}
	m["locks.wait_frac"] = metric{ratio(ls.Waits-lsBase.Waits, acquires), "frac"}

	m["frag.runs_per_txn"] = metric{perSpanTxn(tr.run.n), "count"}
	m["frag.share"] = metric{(tr.runNs + tr.applyNs).Seconds() / tr.wall.Seconds(), "frac"}
	m["replication.applies_per_txn"] = metric{perSpanTxn(tr.apply.n), "count"}
	m["durable.log_bytes_per_txn"] = metric{float64(t.logBytes) / float64(n), "B"}

	m["run.self_ns_per_txn"] = metric{float64((tr.wall - tr.spans).Nanoseconds()) / float64(nAll), "ns"}
	m["sim.events_per_txn"] = metric{perTxn(t.res.Events - t.base.Events), "count"}

	kills := es.DeadlockKills + es.TimeoutKills - esBase.DeadlockKills - esBase.TimeoutKills
	redone := es.Redone - esBase.Redone
	m["core.kills_per_ktxn"] = metric{1000 * perTxn(kills), "count"}
	m["core.redone_per_ktxn"] = metric{1000 * perTxn(redone), "count"}
	m["core.useful_frac"] = metric{ratio(n, n+t.res.Retries+redone), "frac"}
	m["core.fastpath_frac"] = metric{perTxn(es.FastPath - esBase.FastPath), "frac"}
	m["core.speculated_frac"] = metric{ratio(es.Speculated-esBase.Speculated, es.Executed-esBase.Executed), "frac"}

	m["coord.util"] = metric{t.res.CoordUtilization, "frac"}
	m["coord.mp_frac"] = metric{ratio(t.res.CommittedMP, t.res.Committed), "frac"}
	m["coord.mp_p99_us"] = metric{t.mpP99, "us"}
	maxUtil := 0.0
	for _, u := range t.res.PartUtilization {
		maxUtil = max(maxUtil, u)
	}
	m["part.util_max"] = metric{maxUtil, "frac"}

	span(m, "workload.next_ns", &tr.next)
	span(m, "frag.plan_ns", &tr.plan)
	span(m, "frag.run_ns", &tr.run)

	rp := tr.replay()
	span(m, "storage.frag_ns", &rp.storage)
	span(m, "undo.frag_ns", &rp.undo)
	m["undo.frag_overhead_ns"] = metric{rp.undo.quantile(0.5) - rp.storage.quantile(0.5), "ns"}
	span(m, "locks.call_ns", &rp.locks)
	span(m, "durable.encode_ns", &rp.encode)
	if tr.apply.n > 0 {
		span(m, "replication.apply_ns", &tr.apply)
	} else {
		// No backups: nothing was applied, so report what a backup would
		// run per apply — the storage replay (Run with no undo, no locker).
		span(m, "replication.apply_ns", &rp.storage)
	}

	m["trace.overhead"] = metric{hostRate(traced, true) / hostRate(plain, true), "ratio"}
	m["host.probe_ns"] = metric{probeMedian(plain), "ns"}
	m["host.raw_txn_per_s"] = metric{hostRate(plain, false), "1/s"}
	m["setup.load_share"] = metric{tr.loadShare, "frac"}
}

// span reports a span histogram as its median, its highest percentile with
// at least ten samples beyond it, that percentile, and the sample count.
func span(m map[string]metric, name string, h *spanHist) {
	q := tailPercentile(h.n)
	m[name+".p50"] = metric{h.quantile(0.5), "ns"}
	m[name+".tail"] = metric{h.quantile(q / 100), "ns"}
	m[name+".tail_pct"] = metric{q, "%"}
	m[name+".n"] = metric{float64(h.n), "count"}
}

// hostRate is completions per wall second over every slice of the rounds,
// with each slice's wall time scaled to the reference memory speed when
// scaled is set.
func hostRate(rounds []*roundOut, scaled bool) float64 {
	var txns uint64
	var wall float64
	for _, o := range rounds {
		for _, s := range o.slices {
			slow := 1.0
			if scaled {
				slow = s.slow
			}
			txns += s.txns
			wall += s.wall.Seconds() / slow
		}
	}
	return float64(txns) / wall
}

// probeMedian is the median memory-probe reading of the rounds.
func probeMedian(rounds []*roundOut) float64 {
	var all []float64
	for _, o := range rounds {
		all = append(all, o.probes...)
	}
	return median(all)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sumEngine(all []core.EngineStats) core.EngineStats {
	var s core.EngineStats
	for _, e := range all {
		s = s.Add(e)
	}
	return s
}

func sumLocks(all []locks.Stats) locks.Stats {
	var s locks.Stats
	for _, l := range all {
		s = s.Add(l)
	}
	return s
}
