package eval

import (
	"bytes"
	"strings"
	"testing"

	"bloc/internal/testbed"
)

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	dep, err := testbed.Paper(61)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Acquire(dep, AcquireOptions{Positions: 6, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), ds.Len())
	}
	for i := 0; i < ds.Len(); i++ {
		if got.Truth[i] != ds.Truth[i] {
			t.Fatalf("truth %d mismatch", i)
		}
		if got.Snapshots[i].Tag[3][2][1] != ds.Snapshots[i].Tag[3][2][1] {
			t.Fatalf("snapshot %d mismatch", i)
		}
		if got.Snapshots[i].Master[5][1] != ds.Snapshots[i].Master[5][1] {
			t.Fatalf("snapshot %d master mismatch", i)
		}
	}
}

// TestAcquireRejectsNoPositions: a non-positive count is an error, not
// a silent default-sized campaign.
func TestAcquireRejectsNoPositions(t *testing.T) {
	dep, err := testbed.Paper(63)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -3} {
		ds, err := Acquire(dep, AcquireOptions{Positions: n, Seed: 63})
		if err == nil {
			t.Errorf("Positions %d: acquired %d snapshots, want an error", n, ds.Len())
		}
	}
}

func TestLoadDatasetRejectsGarbage(t *testing.T) {
	if _, err := LoadDataset(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Implausible count.
	huge := make([]byte, 8)
	for i := range huge {
		huge[i] = 0xFF
	}
	if _, err := LoadDataset(bytes.NewReader(huge)); err == nil {
		t.Error("huge count accepted")
	}
	// Truncated after header.
	var buf bytes.Buffer
	dep, _ := testbed.Paper(62)
	ds, _ := Acquire(dep, AcquireOptions{Positions: 2, Seed: 62})
	SaveDataset(&buf, ds)
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadDataset(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated dataset accepted")
	} else if !strings.Contains(err.Error(), "read") {
		t.Errorf("unexpected error %v", err)
	}
}

func TestReplayMatchesLiveSuite(t *testing.T) {
	// A suite running on a reloaded dataset must produce identical errors
	// to the live one — the record/replay invariant.
	live := newTestSuite(t, 8)
	var buf bytes.Buffer
	if err := SaveDataset(&buf, live.DS); err != nil {
		t.Fatal(err)
	}
	ds, err := LoadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay := &Suite{Dep: live.Dep, Eng: live.Eng, DS: ds, Seed: live.Seed, Workers: 1}
	e1, err := live.Errors(live.Eng, EstimatorBLoc, nil)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := replay.Errors(replay.Eng, EstimatorBLoc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("position %d: live %v != replay %v", i, e1[i], e2[i])
		}
	}
}
