package exec

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/storage"
	"nautilus/internal/tensor"
)

func TestKeySigRoundTrip(t *testing.T) {
	for _, sig := range []graph.Signature{0, 1, 0xdeadbeef, ^graph.Signature(0)} {
		for _, split := range []Split{Train, Valid} {
			got, ok := keySig(storeKey(sig, split))
			if !ok || got != sig {
				t.Errorf("keySig(storeKey(%s, %s)) = %v, %v", sig, split, got, ok)
			}
		}
	}
	// Keys this package did not write must never parse (they would
	// otherwise be GC candidates).
	for _, key := range []string{
		"", "train", "0123456789abcdef", "0123456789abcdef.test",
		"0123456789abcde.train", "0123456789abcdeg.train", "ckpt.cycle1.train",
	} {
		if _, ok := keySig(key); ok {
			t.Errorf("keySig(%q) parsed; foreign keys must not", key)
		}
	}
}

func TestReconcileArtifactsGCsOrphansOnly(t *testing.T) {
	store, err := storage.NewTensorStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	rng := rand.New(rand.NewSource(11))
	kept, orphan := graph.Signature(0x1111), graph.Signature(0x2222)
	for _, sig := range []graph.Signature{kept, orphan} {
		for _, split := range []Split{Train, Valid} {
			if err := store.Append(storeKey(sig, split), tensor.RandNormal(rng, 1, 3, 4)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A foreign artifact (not a materializer key) must survive any GC.
	if err := store.Append("scratch", tensor.RandNormal(rng, 1, 2, 2)); err != nil {
		t.Fatal(err)
	}

	added := graph.Signature(0x3333)
	oldSigs := map[graph.Signature]bool{kept: true, orphan: true}
	newSigs := map[graph.Signature]bool{kept: true, added: true}
	st, err := ReconcileArtifacts(store, oldSigs, newSigs)
	if err != nil {
		t.Fatal(err)
	}
	wantDeleted := []string{storeKey(orphan, Train), storeKey(orphan, Valid)}
	sort.Strings(wantDeleted)
	if len(st.DeletedKeys) != 2 || st.DeletedKeys[0] != wantDeleted[0] || st.DeletedKeys[1] != wantDeleted[1] {
		t.Errorf("DeletedKeys = %v, want %v", st.DeletedKeys, wantDeleted)
	}
	if st.FreedBytes <= 0 {
		t.Errorf("FreedBytes = %d, want > 0", st.FreedBytes)
	}
	for _, key := range wantDeleted {
		if _, err := os.Stat(filepath.Join(store.Dir(), key+".nts")); !os.IsNotExist(err) {
			t.Errorf("orphan artifact %s not deleted (stat err %v)", key, err)
		}
	}
	for _, key := range []string{storeKey(kept, Train), storeKey(kept, Valid), "scratch"} {
		if n, err := store.Count(key); err != nil || n == 0 {
			t.Errorf("surviving artifact %s unreadable: count %d, err %v", key, n, err)
		}
	}
	wantKept := []string{storeKey(kept, Train), storeKey(kept, Valid), "scratch"}
	sort.Strings(wantKept)
	if keys, err := store.Keys(); err != nil || !slices.Equal(keys, wantKept) {
		t.Errorf("store keys after GC = %v (err %v), want %v", keys, err, wantKept)
	}

	// First plan: nil oldSigs, nothing collected.
	st, err = ReconcileArtifacts(store, nil, newSigs)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.DeletedKeys) != 0 || st.FreedBytes != 0 {
		t.Errorf("first-plan reconcile = %+v, want no deletions", st)
	}
	if keys, err := store.Keys(); err != nil || !slices.Equal(keys, wantKept) {
		t.Errorf("store keys after first-plan reconcile = %v (err %v), want %v", keys, err, wantKept)
	}
}
