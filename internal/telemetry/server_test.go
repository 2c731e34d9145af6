package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

// promLine matches one Prometheus text-exposition sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?$`)

func TestServerMetricsExposition(t *testing.T) {
	col, ctr, a, _ := testCollector(8)
	srv := httptest.NewServer(NewServer(col).Handler())
	defer srv.Close()

	// Before any snapshot: a comment-only body, still valid exposition.
	body := httpGet(t, srv.URL+"/metrics")
	if !strings.Contains(body, "# no snapshot") {
		t.Fatalf("empty-collector exposition: %q", body)
	}

	ctr.Add(42)
	a.issued, a.completed = 9, 5
	col.Collect(1000, 4_000_000)

	body = httpGet(t, srv.URL+"/metrics")
	for _, want := range []string{
		"mpsocsim_sim_cycle 1000",
		"mpsocsim_sim_time_ps 4000000",
		"mpsocsim_issued_total 9",
		"mpsocsim_completed_total 5",
		`mpsocsim_initiator_outstanding{initiator="video"} 4`,
		`mpsocsim_counter{name="grants"} 42`,
		`mpsocsim_gauge{name="queue.depth",clock="central"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("unparsable exposition line: %q", line)
		}
	}
}

func TestServerProgressDocument(t *testing.T) {
	col, _, a, _ := testCollector(8)
	col.SetBudgetPS(8_000_000)
	srv := httptest.NewServer(NewServer(col).Handler())
	defer srv.Close()

	a.issued, a.completed = 3, 1
	col.Collect(500, 2_000_000)
	col.Collect(1000, 4_000_000)

	var p Progress
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/progress")), &p); err != nil {
		t.Fatal(err)
	}
	if p.Schema != ProgressSchema {
		t.Fatalf("schema = %q", p.Schema)
	}
	if p.Cycle != 1000 || p.TimePS != 4_000_000 || p.Done {
		t.Fatalf("position = cycle %d, %d ps, done=%v", p.Cycle, p.TimePS, p.Done)
	}
	if p.BudgetFrac != 0.5 {
		t.Fatalf("budget frac = %v, want 0.5", p.BudgetFrac)
	}
	if len(p.Initiators) != 2 || p.Initiators[0].Outstanding != 2 {
		t.Fatalf("initiators = %+v", p.Initiators)
	}

	col.Finish()
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/progress")), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Done {
		t.Fatal("progress does not report done after Finish")
	}
}

// TestServerEventsStream exercises the SSE endpoint end to end: records
// already in the ring are replayed, then the done event terminates the
// stream once Finish lands.
func TestServerEventsStream(t *testing.T) {
	col, _, _, _ := testCollector(8)
	col.Collect(10, 40_000)
	col.Collect(20, 80_000)
	srv := httptest.NewServer(NewServer(col).Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	go func() {
		time.Sleep(50 * time.Millisecond)
		col.Collect(30, 120_000)
		col.Finish()
	}()

	var dataLines []string
	var sawDone bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: {\"schema\"") {
			dataLines = append(dataLines, strings.TrimPrefix(line, "data: "))
		}
		if line == "event: done" {
			sawDone = true
			break
		}
	}
	if !sawDone {
		t.Fatalf("stream ended without done event (scan err %v)", sc.Err())
	}
	if len(dataLines) != 3 {
		t.Fatalf("received %d records over SSE, want 3", len(dataLines))
	}
	for i, line := range dataLines {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if rec.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, rec.Seq)
		}
	}
}

func TestHubAggregation(t *testing.T) {
	hub := NewHub()
	if line := hub.Line(); line != "" {
		t.Fatalf("empty hub renders %q", line)
	}

	j1 := hub.Job("fig5/ddr", 1_000_000)
	j2 := hub.Job("fig5/lmi", 1_000_000)
	j1.Publish(100, 400_000)
	j2.Publish(50, 200_000)

	doc := hub.Doc()
	if doc.Schema != HubSchema || doc.Total != 2 || doc.Running != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	// Jobs sort by name.
	if doc.Jobs[0].Name != "fig5/ddr" || doc.Jobs[1].Name != "fig5/lmi" {
		t.Fatalf("job order = %s, %s", doc.Jobs[0].Name, doc.Jobs[1].Name)
	}
	if doc.Jobs[0].BudgetFrac != 0.4 {
		t.Fatalf("budget frac = %v", doc.Jobs[0].BudgetFrac)
	}

	if line := hub.Line(); !strings.Contains(line, "2 running") {
		t.Fatalf("line = %q", line)
	}

	j1.Finish()
	j2.Finish()
	doc = hub.Doc()
	if doc.Running != 0 || !doc.Jobs[0].Done {
		t.Fatalf("after finish: %+v", doc)
	}
	if line := hub.Line(); line != "" {
		t.Fatalf("all-done hub renders %q", line)
	}
}

func TestHubHandler(t *testing.T) {
	hub := NewHub()
	hub.Job("io/stbus3", 500_000).Publish(10, 40_000)
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	var doc HubProgress
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/progress")), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != HubSchema || len(doc.Jobs) != 1 || doc.Jobs[0].Cycle != 10 {
		t.Fatalf("doc = %+v", doc)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
