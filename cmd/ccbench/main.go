// Command ccbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ccbench -list
//	ccbench -experiment fig4
//	ccbench -experiment all [-quick] [-csv | -json] [-seed 7]
//	ccbench -experiment fig4 -quick -json -baseline BENCH_4.json -tolerance 0.25
//	ccbench -experiment fig4 -cpuprofile cpu.out -memprofile mem.out
//	ccbench -experiment parallel-speedup -shards 4 -json
//
// Each experiment prints the same rows/series the paper reports — plus the
// beyond-the-paper load experiments (latency-openloop, zipf-skew), the
// durability experiments (recovery-checkpoint, durable-overhead), the
// optimistic-engine crossovers (mvcc-crossover, occ-retry), the YCSB-E
// scan-fraction sweep (ycsb-scan), the sharded
// parallel runtime sweep (parallel-speedup), and the elastic hot-partition
// split sweep (elastic-split); see
// EXPERIMENTS.md for the recorded comparison against the paper's curves.
// With -json, one JSON object per grid cell is emitted (newline delimited)
// for machine consumption (BENCH_*.json trajectories) — measured cells carry
// p50_us/p95_us/p99_us completion-latency percentiles next to throughput,
// and recovery cells add recovery_ms/log_bytes/replay_txns —
// followed by one perf record per experiment ("perf":true) carrying wall
// time, events/sec and allocs/txn; text mode prints the same perf line as a
// comment and a p99 column per measured series.
//
// With -baseline, every cell is also compared against the named BENCH_*.json
// file: a throughput more than -tolerance (fractional, default 0.25) below
// the committed value fails the run with exit status 1. Cell throughputs are
// virtual-time and deterministic, so the comparison is host-independent;
// perf records in the baseline are informational and never compared.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"specdb/internal/bench"
)

func main() {
	var (
		expID      = flag.String("experiment", "all", "experiment id (fig4..fig10, table1, table2, ablation-*, latency-openloop, zipf-skew, recovery-checkpoint, durable-overhead, mvcc-crossover, occ-retry, ycsb-scan, parallel-speedup, elastic-split, or all)")
		quick      = flag.Bool("quick", false, "shorter measurement windows and coarser sweeps")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut    = flag.Bool("json", false, "emit newline-delimited JSON, one object per grid cell plus perf records")
		seed       = flag.Int64("seed", 42, "simulation seed")
		shards     = flag.Int("shards", 0, "run microbenchmark cells on the sharded parallel runtime at this width (0 = omit WithParallelism, a width-1 run; TPC-C cells always run at width 1)")
		list       = flag.Bool("list", false, "list experiments and exit")
		baseline   = flag.String("baseline", "", "BENCH_*.json file to compare cell throughput against")
		tolerance  = flag.Float64("tolerance", 0.25, "relative throughput drop vs -baseline that fails the run")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile (after the runs) to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-22s %s [%s]\n", e.ID, e.Title, e.Ref)
		}
		return
	}
	if *csv && *jsonOut {
		fmt.Fprintln(os.Stderr, "ccbench: -csv and -json are mutually exclusive")
		os.Exit(2)
	}
	opts := bench.DefaultOpts()
	if *quick {
		opts = bench.QuickOpts()
	}
	opts.Seed = *seed
	opts.Shards = *shards

	var exps []bench.Experiment
	if *expID == "all" {
		exps = bench.All()
	} else {
		e, ok := bench.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "ccbench: unknown experiment %q (use -list)\n", *expID)
			os.Exit(2)
		}
		exps = []bench.Experiment{e}
	}

	var base []bench.BaselineCell
	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
			os.Exit(2)
		}
		base, err = bench.ReadBaseline(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: %s: %v\n", *baseline, err)
			os.Exit(2)
		}
	}

	// run's exit code reaches os.Exit only after run's defers flushed the
	// CPU profile — a regression that fails the baseline gate is exactly
	// the run whose profile must survive.
	os.Exit(run(exps, opts, base, *jsonOut, *csv, *tolerance, *baseline, *cpuprofile, *memprofile))
}

func run(exps []bench.Experiment, opts bench.Opts, base []bench.BaselineCell,
	jsonOut, csv bool, tolerance float64, baseline, cpuprofile, memprofile string) int {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}

	var fresh []bench.BaselineCell
	for _, e := range exps {
		series, perf := bench.MeasurePerf(e, opts)
		switch {
		case jsonOut:
			if err := bench.FormatJSON(os.Stdout, e, series); err != nil {
				fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
				return 1
			}
			if err := bench.FormatPerfJSON(os.Stdout, perf); err != nil {
				fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
				return 1
			}
		case csv:
			bench.FormatCSV(os.Stdout, e, series)
		default:
			bench.Format(os.Stdout, e, series)
			bench.FormatPerf(os.Stdout, perf)
		}
		if base != nil {
			fresh = append(fresh, bench.SeriesCells(e, series)...)
		}
	}

	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
			return 2
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
			return 2
		}
	}

	if base != nil {
		bad, compared := bench.CompareBaseline(base, fresh, tolerance)
		if len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "ccbench: %d regression(s) vs %s:\n", len(bad), baseline)
			for _, m := range bad {
				fmt.Fprintf(os.Stderr, "  %s\n", m)
			}
			return 1
		}
		if compared == 0 {
			fmt.Fprintf(os.Stderr, "ccbench: no fresh cell has a counterpart in %s; nothing was compared\n", baseline)
			return 1
		}
		fmt.Fprintf(os.Stderr, "ccbench: %d cells compared, all within %.0f%% of %s; %d fresh cells not in the baseline\n",
			compared, tolerance*100, baseline, len(fresh)-compared)
	}
	return 0
}
