package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// BENCH_*.json files commit ccbench NDJSON output as performance baselines:
// one JSON object per grid cell plus one perf record per experiment. The
// cells are virtual-time throughput and therefore deterministic — the same
// code, seed and options reproduce them bit for bit on any host — so CI can
// diff a fresh run against the committed baseline and fail on regressions.
// The perf records (events/sec, allocs/txn) are host-dependent and are
// ignored by the comparison; they document the trajectory on the machine
// that produced the baseline.

// BaselineCell is one comparable measurement: a grid cell identified by
// (experiment, series, x) with its throughput y.
type BaselineCell struct {
	Experiment string  `json:"experiment"`
	Series     string  `json:"series"`
	X          float64 `json:"x"`
	Y          float64 `json:"y"`
	// Shards is the runtime width behind the cell. Zero (cells recorded
	// without the field, as in BENCH_4.json) and one share a key: every run
	// without WithParallelism is a width-1 run, so folding them keeps such
	// baseline files comparable.
	Shards int `json:"shards,omitempty"`
}

// key identifies a cell across runs.
func (c BaselineCell) key() string {
	s := c.Shards
	if s == 0 {
		s = 1
	}
	return fmt.Sprintf("%s/%s/x=%g/shards=%d", c.Experiment, c.Series, c.X, s)
}

// ReadBaseline parses ccbench NDJSON, returning the grid cells and skipping
// perf records and blank lines.
func ReadBaseline(r io.Reader) ([]BaselineCell, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []BaselineCell
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec struct {
			BaselineCell
			Perf bool `json:"perf"`
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("baseline line %d: %w", line, err)
		}
		if rec.Perf {
			continue
		}
		out = append(out, rec.BaselineCell)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// SeriesCells flattens an experiment's series into comparable cells.
func SeriesCells(e Experiment, series []Series) []BaselineCell {
	var out []BaselineCell
	for _, s := range series {
		for _, p := range s.Points {
			out = append(out, BaselineCell{Experiment: e.ID, Series: s.Name, X: p.X, Y: p.Y, Shards: p.Shards})
		}
	}
	return out
}

// CompareBaseline checks fresh cells against a committed baseline with a
// relative tolerance band: a fresh y below (1−tol)·baseline y is a
// regression (cells carry throughput, so only drops fail — improvements
// raise the bar when the baseline file is regenerated). Baseline cells with
// no fresh counterpart are errors only when their experiment was re-run:
// a vanished cell would otherwise hide a regression, but comparing a
// baseline of one experiment against a run of another must not demand cells
// the run never produced. Fresh cells absent from the baseline pass — new
// experiments extend the grid. It returns one message per violation, in
// fresh-cell order, and the number of fresh cells that had a baseline
// counterpart and were therefore actually compared.
func CompareBaseline(baseline, fresh []BaselineCell, tol float64) (bad []string, compared int) {
	base := make(map[string]BaselineCell, len(baseline))
	for _, c := range baseline {
		base[c.key()] = c
	}
	ranExp := make(map[string]bool)
	seen := make(map[string]bool)
	for _, f := range fresh {
		ranExp[f.Experiment] = true
		b, ok := base[f.key()]
		if !ok {
			continue
		}
		seen[f.key()] = true
		compared++
		if f.Y < (1-tol)*b.Y {
			bad = append(bad, fmt.Sprintf("%s: %.1f is %.1f%% below baseline %.1f (tolerance %.0f%%)",
				f.key(), f.Y, 100*(1-f.Y/b.Y), b.Y, 100*tol))
		}
	}
	for _, c := range baseline {
		if ranExp[c.Experiment] && !seen[c.key()] {
			bad = append(bad, fmt.Sprintf("%s: baseline cell missing from fresh run", c.key()))
		}
	}
	return bad, compared
}
