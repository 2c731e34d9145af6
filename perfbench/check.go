package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// expectedJSON pins, for seeds 1 and 2, what every run of every workload
// simulates. Regenerate it with `go test -run TestExpected -update` after an
// intended change to the model.
//
//go:embed testdata/expected.json
var expectedJSON []byte

// pin is what the correctness gate fixes about one run. A change that only
// makes the simulator faster must leave every field identical.
type pin struct {
	Run           string `json:"run"`
	CentralCycles int64  `json:"central_cycles"`
	Issued        int64  `json:"issued"`
	Completed     int64  `json:"completed"`
	Bytes         int64  `json:"bytes"`
	IRQMet        int64  `json:"irq_met"`
	IRQMissed     int64  `json:"irq_missed"`
	// CounterHash is the FNV-64a hash of every metrics counter, sorted by
	// name, so any simulated statistic that moves changes it.
	CounterHash string `json:"counter_hash"`
}

// expectations maps a seed, then a workload, to the pins of one job's runs
// in run order.
type expectations map[string]map[string][]pin

func loadExpected() (expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("parse testdata/expected.json: %w", err)
	}
	return e, nil
}

// pinned returns the pins for one workload at one seed, or nil when the seed
// has none.
func (e expectations) pinned(seed uint64, workload string) []pin {
	return e[strconv.FormatUint(seed, 10)][workload]
}

// pinsOf returns the pins of a finished job's runs.
func pinsOf(j *job) []pin {
	pins := make([]pin, len(j.runs))
	for i, r := range j.runs {
		p := pin{
			Run:           r.name,
			CentralCycles: r.res.CentralCycles,
			Issued:        r.res.Issued,
			Completed:     r.res.Completed,
			Bytes:         r.res.TotalBytes,
		}
		for _, d := range r.res.Deadlines {
			p.IRQMet += d.Met
			p.IRQMissed += d.Missed
		}
		if m := r.res.Metrics; m != nil {
			cs := append(m.Counters[:0:0], m.Counters...)
			sort.Slice(cs, func(a, b int) bool { return cs[a].Name < cs[b].Name })
			h := fnv.New64a()
			for _, c := range cs {
				fmt.Fprintf(h, "%s=%d\n", c.Name, c.Value)
			}
			p.CounterHash = fmt.Sprintf("%016x", h.Sum64())
		}
		pins[i] = p
	}
	return pins
}

// check is the correctness gate for one job. Every run must drain, complete
// every transaction it issued and account for every serviced interrupt as
// met or missed; and when want is non-nil the job's pins must equal it.
func check(j *job, want []pin) error {
	for _, r := range j.runs {
		res := r.res
		if !res.Done || res.Stalled {
			return fmt.Errorf("%s did not drain (done=%v stalled=%v)", r.name, res.Done, res.Stalled)
		}
		if res.Issued != res.Completed {
			return fmt.Errorf("%s issued %d transactions, completed %d", r.name, res.Issued, res.Completed)
		}
		for _, d := range res.Deadlines {
			if d.Met+d.Missed != d.Serviced {
				return fmt.Errorf("%s %s: met %d + missed %d != serviced %d", r.name, d.Device, d.Met, d.Missed, d.Serviced)
			}
		}
	}
	if want == nil {
		return nil
	}
	got := pinsOf(j)
	if len(got) != len(want) {
		return fmt.Errorf("job made %d runs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("run %d differs from its pin:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	return nil
}
