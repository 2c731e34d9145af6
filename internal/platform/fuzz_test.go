package platform

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mpsocsim/internal/snapshot"
)

// fuzzSpec is the one configuration the snapshot fuzzer decodes against: the
// full platform (bridges, LMI controller, DDR model) with the I/O subsystem
// attached, so every section codec — including the DMA chain, IRQ ring and
// heap-allocator codecs — is on the decode path. Must stay in sync with the
// checked-in corpus under testdata/fuzz/FuzzSnapshotDecode — those seeds
// carry its fingerprint.
func fuzzSpec() Spec { return quickIO(STBus, Distributed, LMIDDR) }

// fuzzSnapshotBytes runs the fuzz spec to a mid-flight instant and returns
// the real snapshot stream — the seed that lets the mutation engine reach
// the component codecs instead of dying at the header.
func fuzzSnapshotBytes(tb testing.TB) []byte {
	p := MustBuild(fuzzSpec())
	if !p.RunToCycle(1500, 5e12) {
		tb.Fatal("fuzz spec drained before the seed checkpoint")
	}
	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSnapshotDecode drives platform.Restore with arbitrary bytes. The
// decoder must never panic and never allocate unboundedly: every failure
// surfaces as an error wrapping one of the snapshot sentinels (ErrMagic,
// ErrVersion, ErrTruncated, ErrCorrupt) or as the spec-fingerprint refusal.
// Inputs it accepts restore to a platform paused at the checkpoint instant.
func FuzzSnapshotDecode(f *testing.F) {
	seed := fuzzSnapshotBytes(f)
	f.Add([]byte(nil))
	f.Add([]byte(snapshot.Magic))
	f.Add(append([]byte(snapshot.Magic), snapshot.Version))
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	// valid header, flipped byte mid-state: exercises the section codecs'
	// semantic validation rather than the header checks
	bad := append([]byte(nil), seed...)
	bad[len(bad)/2] ^= 0xff
	f.Add(bad)

	spec := fuzzSpec()
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Restore(spec, bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, snapshot.ErrMagic) && !errors.Is(err, snapshot.ErrVersion) &&
				!errors.Is(err, snapshot.ErrTruncated) && !errors.Is(err, snapshot.ErrCorrupt) &&
				!strings.Contains(err.Error(), "different spec") {
				t.Fatalf("error %v wraps no snapshot sentinel", err)
			}
			return
		}
		if p.ResumedCycles() != p.CentralClk.Cycles() {
			t.Fatalf("restored platform resumed at %d but central clock reads %d",
				p.ResumedCycles(), p.CentralClk.Cycles())
		}
	})
}

// TestFuzzCorpusCurrent requires the checked-in seed snapshot to restore
// cleanly: a format change that forgets to regenerate the corpus (see
// TestWriteFuzzCorpus) fails here, instead of silently cutting the fuzzer
// back to header-only coverage.
func TestFuzzCorpusCurrent(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode", "seed_snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	const header = "go test fuzz v1\n[]byte("
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(body)), header)
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("seed_snapshot is not a one-value []byte corpus file")
	}
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(fuzzSpec(), strings.NewReader(data)); err != nil {
		t.Fatalf("the checked-in seed snapshot does not restore (regenerate it with WRITE_FUZZ_CORPUS=1 go test -run TestWriteFuzzCorpus ./internal/platform): %v", err)
	}
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus for
// FuzzSnapshotDecode (run with WRITE_FUZZ_CORPUS=1 after a snapshot format
// change — the seeds embed the fuzz spec's fingerprint and version byte, so
// stale ones degrade to header-only coverage).
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz/FuzzSnapshotDecode")
	}
	seed := fuzzSnapshotBytes(t)
	trunc := seed[:len(seed)/2]
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0xff
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"seed_empty":       nil,
		"seed_magic_only":  []byte(snapshot.Magic),
		"seed_header_only": append([]byte(snapshot.Magic), snapshot.Version),
		"seed_snapshot":    seed,
		"seed_truncated":   trunc,
		"seed_bitflip":     flipped,
	} {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
