package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmark(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("parse %s: %w", path, err)
	}
	return b, nil
}

// setupFloorS is the smallest change in setup_s that compareWith flags. Set-up
// takes about 0.2 ms on the single-platform workloads, where the relative
// bound alone would flag timer jitter.
const setupFloorS = 1e-4

// compareWith prints every metric's change from the result in oldPath (the
// last line of an earlier run's output) to cur. It flags an end-to-end metric
// that got worse by more than its BENCHMARK.json bound (and, for setup_s, by
// more than setupFloorS), and any change at all to an exact simulated count.
func compareWith(w io.Writer, oldPath, benchPath string, metrics []metric, cur resultLine) error {
	data, err := os.ReadFile(oldPath)
	if err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var old resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &old); err != nil {
		return fmt.Errorf("parse last line of %s: %w", oldPath, err)
	}
	b, err := loadBenchmark(benchPath)
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range b.EndToEnd {
		bounds[m.Name] = m.Bound
	}

	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-28s %14s %14s %9s  %s\n", "metric", "old", "new", "change", "flag")
	for _, m := range metrics {
		o, ok := old.Metrics[m.name]
		if !ok {
			fmt.Fprintf(w, "%-28s %14s %14.6g %9s  not in %s\n", m.name, "-", cur.Metrics[m.name].Value, "-", oldPath)
			continue
		}
		n := cur.Metrics[m.name].Value
		change := 0.0
		if o.Value != 0 {
			change = n/o.Value - 1
		}
		worse := change
		if m.better == "higher" {
			worse = -change
		}
		flag := ""
		switch bound, bounded := bounds[m.name]; {
		case m.exact && n != o.Value:
			flag = "CHANGED (simulated count)"
		case m.name == "setup_s" && math.Abs(n-o.Value) <= setupFloorS:
			// Within the floor: not flagged whatever the relative change.
		case bounded && worse > bound:
			flag = fmt.Sprintf("REGRESSION (bound %.0f%%)", 100*bound)
		}
		fmt.Fprintf(w, "%-28s %14.6g %14.6g %+8.2f%%  %s\n", m.name, o.Value, n, 100*change, flag)
	}
	return nil
}
