package ctl

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestStoreObjectsRoundTripAndDedup(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(`{"cell":"storm/2","rate":4e5}`)
	sha, err := s.PutObject(data)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := sha256.Sum256(data)
	if sha != hex.EncodeToString(wantSum[:]) {
		t.Fatalf("address %s is not the content hash", sha)
	}
	// Idempotent: same content, same address, no error.
	again, err := s.PutObject(data)
	if err != nil || again != sha {
		t.Fatalf("second put: %s, %v", again, err)
	}
	got, err := s.GetObject(sha)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get: %q, %v", got, err)
	}
	if _, err := s.GetObject("deadbeef"); err == nil {
		t.Fatal("bad address accepted")
	}
	missing := hex.EncodeToString(bytes.Repeat([]byte{0xab}, 32))
	if _, err := s.GetObject(missing); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing object: %v", err)
	}
}

func TestStoreDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sha, err := s.PutObject([]byte("artifact bytes"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "objects", sha[:2], sha[2:])
	if err := os.WriteFile(path, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetObject(sha); err == nil {
		t.Fatal("corrupt object served")
	}
}

// TestStoreDetectsTruncatedObject covers an object file cut short after
// its rename into objects/ (a disk-full or torn write the rename cannot
// undo): a prefix of the bytes no longer hashes to the address, so the
// read must be ErrCorrupt, never a short result.
func TestStoreDetectsTruncatedObject(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(`{"Cell":{"Engine":"storm","Workers":2},"Rate":400000}`)
	sha, err := s.PutObject(data)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "objects", sha[:2], sha[2:])
	for _, size := range []int64{int64(len(data)) - 1, int64(len(data)) / 2, 0} {
		if err := os.Truncate(path, size); err != nil {
			t.Fatal(err)
		}
		if got, err := s.GetObject(sha); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("object truncated to %d bytes: got %q, %v; want ErrCorrupt", size, got, err)
		}
	}
}

func TestStoreRunManifestsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := &RunManifest{
		ID:     "run-0002",
		Spec:   RunSpec{Experiment: "table1", Seed: 42, Scale: "quick"},
		Status: RunRunning,
		Cells:  []CellManifest{{ID: "storm/2", ResultSHA: "", Attempts: 1}, {ID: "storm/4"}},
	}
	m2 := &RunManifest{
		ID:     "run-0001",
		Spec:   RunSpec{Experiment: "fig7", Seed: 7, Scale: "full"},
		Status: RunDone, ArtifactSHA: "aa",
		Cells: []CellManifest{{ID: "spark/overload", ResultSHA: "bb"}},
	}
	for _, m := range []*RunManifest{m1, m2} {
		if err := s.SaveRun(m); err != nil {
			t.Fatal(err)
		}
	}
	// Update in place: manifests are rewritten, not appended.
	m1.Status = RunDone
	if err := s.SaveRun(m1); err != nil {
		t.Fatal(err)
	}
	// Re-open and load: sorted by ID, contents intact.
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s2.LoadRuns()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].ID != "run-0001" || runs[1].ID != "run-0002" {
		t.Fatalf("load order wrong: %+v", runs)
	}
	if runs[1].Status != RunDone || runs[1].Cells[0].Attempts != 1 {
		t.Fatalf("manifest content lost: %+v", runs[1])
	}
	if runs[0].Spec.Scale != "full" || runs[0].ArtifactSHA != "aa" {
		t.Fatalf("manifest content lost: %+v", runs[0])
	}
}
