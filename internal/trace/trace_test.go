package trace

import (
	"strings"
	"testing"
)

func TestSamplerCSV(t *testing.T) {
	s := NewSampler(100)
	s.Sample(1, "fifo", 0)
	s.Sample(2, "fifo", 3)
	s.Sample(2, "busy", 1)
	s.Sample(4, "fifo", 1)
	var sb strings.Builder
	if err := s.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "time,busy,fifo" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("rows = %d, want 4:\n%s", len(lines), sb.String())
	}
	// at t=4 busy holds its last value (1)
	if lines[3] != "4,1,1" {
		t.Fatalf("hold-last failed: %q", lines[3])
	}
}

func TestSamplerEmpty(t *testing.T) {
	s := NewSampler(10)
	var sb strings.Builder
	if err := s.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "" {
		t.Fatal("empty sampler should write nothing")
	}
}

func TestSamplerLimit(t *testing.T) {
	s := NewSampler(2)
	for i := 0; i < 5; i++ {
		s.Sample(int64(i), "x", int64(i))
	}
	var sb strings.Builder
	if err := s.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 { // header + 2 points
		t.Fatalf("rows = %d", len(lines))
	}
}
