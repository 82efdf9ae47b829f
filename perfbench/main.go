// Command perfbench is the repository's benchmark. It runs one of three fixed,
// closed-loop workloads through specdb.Open/DB.Run, checks the drained
// cluster's outputs, and prints each metric by name with its unit; the last
// line of standard output is one JSON object with the results.
//
//	go run . --workload kv-locking --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics: host cost (what the Go code
// spends) and virtual results (the cost model's deterministic outputs).
// --trace 1 alternates untraced and traced rounds of the workload, asserts
// that they give bit-identical virtual results, and prints the per-layer
// metrics.
// --workload all runs every workload in turn. See NOTES.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"
)

// minRounds is the fewest rounds a run makes, so that the bit-identical
// round check always compares two.
const minRounds = 2

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: kv-locking, kv-spec-durable, tpcc or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "wall seconds to measure, run as identical rounds (see NOTES.md)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	source := flag.String("source", "unknown", "source identity recorded in the output")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	// One P: the simulation runs one goroutine at a time, and Locking's
	// fiber hand-off costs more CPU per txn with two (see NOTES.md).
	runtime.GOMAXPROCS(1)
	fmt.Printf("env go=%s nproc=%d gomaxprocs=%d source=%s\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), *source)

	var todo []*workloadSpec
	if *name == "all" {
		todo = workloads
	} else if w, ok := workloadByName(*name); ok {
		todo = []*workloadSpec{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	pr, err := newMemProbe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ok := true
	for _, w := range todo {
		res, err := runWorkload(w, *seed, *seconds, *trace == 1, pr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := res.Metrics[n]
			fmt.Printf("%s %-28s %14.6g %s\n", w.name, n, m.Value, m.Unit)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload measures one workload and returns its result line. It runs
// identical rounds until --seconds of wall time are used, and at least
// minRounds; the traced run alternates untraced and traced rounds.
func runWorkload(w *workloadSpec, seed int64, seconds int, traced bool, pr *memProbe) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: CHECK FAILED: %s\n", w.name, fmt.Sprintf(format, args...))
		res.Correct = false
	}
	var plain, tracedOut []*roundOut
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	for i := 0; ; i++ {
		// Stop when the next round would more likely end past the budget
		// than before it, so a run lasts about --seconds on any host.
		if elapsed := time.Since(start); i >= minRounds && elapsed+elapsed/time.Duration(2*i) >= budget {
			break
		}
		reps := w.setupReps
		if traced {
			reps = 1
		}
		o, err := runRound(w, seed, reps, nil, pr)
		if err != nil {
			return nil, err
		}
		plain = append(plain, o)
		if traced {
			if o, err = runRound(w, seed, 1, tr, pr); err != nil {
				return nil, err
			}
			tracedOut = append(tracedOut, o)
		}
	}
	// Every round of a seed must give the same virtual results, bit for
	// bit; a traced round must too, or tracing changed the program.
	for _, o := range append(plain, tracedOut...) {
		res.Attempted += o.completed
		if o.checkErr != nil {
			fail("%v", o.checkErr)
		}
		if !reflect.DeepEqual(o.base, plain[0].base) || !reflect.DeepEqual(o.res, plain[0].res) {
			fail("a round's virtual results differ from the first round's")
		}
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	if traced {
		perLayer(res.Metrics, plain, tracedOut, tr)
	} else {
		endToEnd(res.Metrics, plain)
		fmt.Printf("%s memory probe %.4g ns/access (reference %g), unscaled host_txn_per_s %.6g\n",
			w.name, probeMedian(plain), probeRefNs, hostRate(plain, false))
	}
	return res, nil
}
