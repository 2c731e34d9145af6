package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/metrics"
	"mpsocsim/internal/tracecap"
)

// buildTestTrace records a tiny two-initiator trace through the real capture
// path so the exporter is tested against genuine probe output.
func buildTestTrace() *tracecap.Trace {
	c := tracecap.NewCapture("test", 0)
	fast := c.Probe("ip_fast", 4000) // 250 MHz
	slow := c.Probe("ip_slow", 5000) // 200 MHz
	reqs := []*bus.Request{
		{ID: 1, Op: bus.OpRead, Addr: 0x1000, Beats: 4, IssueCycle: 10},
		{ID: 2, Op: bus.OpWrite, Addr: 0x2000, Beats: 2, IssueCycle: 12, Posted: true},
		{ID: 3, Op: bus.OpRead, Addr: 0x3000, Beats: 8, IssueCycle: 5},
	}
	fast.RequestIssued(reqs[0])
	fast.RequestIssued(reqs[1])
	slow.RequestIssued(reqs[2])
	fast.RequestCompleted(reqs[0], 30)
	slow.RequestCompleted(reqs[2], 41)
	return c.Trace()
}

func TestWriteChromeTraceShape(t *testing.T) {
	r := metrics.NewRegistry()
	var depth int64
	r.GaugeFunc("lmi.queue_depth", "central", func() int64 { return depth })
	col := NewCollector(r, nil, 64)
	for c := int64(2); c <= 20; c += 2 {
		depth = (c - 1) % 5
		col.Collect(c, c*4000)
	}
	recs, _ := col.Drain(0)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, buildTestTrace(), recs, nil); err != nil {
		t.Fatal(err)
	}

	// The output must be valid JSON in the trace-event object format.
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}

	var nX, nC, nM int
	lastTs := -1.0
	threadNames := map[int]string{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			nM++
			if ev.Name == "thread_name" {
				threadNames[ev.Tid] = ev.Args["name"].(string)
			}
		case "X":
			nX++
			if ev.Pid != chromePidInitiators {
				t.Fatalf("X event on pid %d, want %d", ev.Pid, chromePidInitiators)
			}
			if ev.Ts < lastTs {
				t.Fatalf("timestamps not monotonic: %v after %v", ev.Ts, lastTs)
			}
			lastTs = ev.Ts
		case "C":
			nC++
			if ev.Pid != chromePidCounters {
				t.Fatalf("C event on pid %d, want %d", ev.Pid, chromePidCounters)
			}
			if ev.Ts < lastTs {
				t.Fatalf("timestamps not monotonic: %v after %v", ev.Ts, lastTs)
			}
			lastTs = ev.Ts
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if nX != 3 {
		t.Fatalf("duration events = %d, want 3 (one per recorded transaction)", nX)
	}
	if nC != 10 {
		t.Fatalf("counter events = %d, want 10 (one gauge, 20 cycles collected every 2)", nC)
	}
	if threadNames[1] != "ip_fast" || threadNames[2] != "ip_slow" {
		t.Fatalf("tid mapping = %v, want 1:ip_fast 2:ip_slow", threadNames)
	}

	// Cross-domain time conversion: ip_slow's read issued at cycle 5 of a
	// 5000 ps clock lands at 25000 ps = 0.025 us, before ip_fast's cycle-10
	// issue at 40000 ps.
	var sawSlowRead bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Args["addr"] == "0x3000" {
			sawSlowRead = true
			if ev.Ts != 0.025 {
				t.Fatalf("slow read ts = %v us, want 0.025", ev.Ts)
			}
			if ev.Dur != 0.18 { // latency 41-5=36 cycles * 5000 ps
				t.Fatalf("slow read dur = %v us, want 0.18", ev.Dur)
			}
		}
	}
	if !sawSlowRead {
		t.Fatal("slow-domain read missing from trace")
	}
}

func TestWriteChromeTraceNilInputs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("traceEvents key missing")
	}
}
