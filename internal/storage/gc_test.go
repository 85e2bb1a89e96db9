package storage

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"nautilus/internal/tensor"
)

func TestTensorStoreKeysSorted(t *testing.T) {
	s, _ := newStore(t)
	rng := rand.New(rand.NewSource(21))
	for _, key := range []string{"c", "a", "b"} {
		if err := s.Append(key, tensor.RandNormal(rng, 1, 2, 3)); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	if len(keys) != len(want) {
		t.Fatalf("Keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v, want %v (sorted)", keys, want)
		}
	}
}

func TestTensorStoreGC(t *testing.T) {
	s, _ := newStore(t)
	rng := rand.New(rand.NewSource(22))
	for _, key := range []string{"keepme", "gone1", "gone2"} {
		if err := s.Append(key, tensor.RandNormal(rng, 1, 4, 3)); err != nil {
			t.Fatal(err)
		}
	}
	wantFreed := 2 * (headerSize(1) + 4*3*4) // two files of 4 records × 3 floats

	deleted, freed, err := s.GC(func(key string) bool { return key == "keepme" })
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 2 || deleted[0] != "gone1" || deleted[1] != "gone2" {
		t.Errorf("deleted = %v, want [gone1 gone2]", deleted)
	}
	if freed != wantFreed {
		t.Errorf("freed = %d, want %d", freed, wantFreed)
	}
	for _, key := range deleted {
		if _, err := os.Stat(filepath.Join(s.Dir(), key+".nts")); !os.IsNotExist(err) {
			t.Errorf("%s.nts survived GC (stat err %v)", key, err)
		}
	}
	if n, err := s.Count("keepme"); err != nil || n != 4 {
		t.Errorf("kept artifact count = %d (%v), want 4", n, err)
	}

	// Collected keys are fully released: a fresh append recreates them.
	if err := s.Append("gone1", tensor.RandNormal(rng, 1, 2, 3)); err != nil {
		t.Fatalf("append to GC'd key: %v", err)
	}
	if n, err := s.Count("gone1"); err != nil || n != 2 {
		t.Errorf("recreated artifact count = %d (%v), want 2", n, err)
	}

	// Keep-all GC is a no-op.
	deleted, freed, err = s.GC(func(string) bool { return true })
	if err != nil || len(deleted) != 0 || freed != 0 {
		t.Errorf("keep-all GC = %v, %d, %v; want no-op", deleted, freed, err)
	}
}
