package violations

import (
	"errors"

	"nautilus/internal/storage"
	"nautilus/internal/tensor"
)

// storeLeak opens a store but misses Close on the capacity-probe path.
func storeLeak(dir string, probe bool) error {
	st, err := storage.NewTensorStore(dir, nil) // want "storelease: store st is not closed on every path to return; add defer st.Close() or close it on the missed branch"
	if err != nil {
		return err
	}
	if probe {
		return errors.New("probe only")
	}
	return st.Close()
}

// storeUseAfterClose appends to a store that is already closed on every
// path reaching the call.
func storeUseAfterClose(dir string) error {
	st, err := storage.NewTensorStore(dir, nil)
	if err != nil {
		return err
	}
	if appendErr := st.Append("grad", nil); appendErr != nil {
		_ = st.Close()
		return appendErr
	}
	_ = st.Close()
	return st.Append("loss", nil) // want "storelease: store st may already be closed here; move the use before Close"
}

// storeStaleRows reads rows, sweeps the store, then hands the stale rows
// on: the GC may have dropped the record files backing them.
func storeStaleRows(dir string, keep func(string) bool) (*tensor.Tensor, error) {
	st, err := storage.NewTensorStore(dir, nil)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	rows, err := st.ReadRows("embed", []int{0, 1})
	if err != nil {
		return nil, err
	}
	if _, _, err := st.GC(keep); err != nil {
		return nil, err
	}
	return rows, nil // want "storelease: rows was read from store st before a GC/Delete that may have dropped its rows; re-read it after the sweep or copy it out first"
}

// storeRebound re-binds the handle before closing the first store: the
// first store's directory handle and cache are unreachable from here on.
func storeRebound(dir string) error {
	st, err := storage.NewTensorStore(dir, nil) // want "storelease: store st is re-bound before being closed; the earlier store's directory handle and cache leak — close it before re-binding"
	if err != nil {
		return err
	}
	st, err = storage.NewTensorStore(dir+".v2", nil)
	if err != nil {
		return err
	}
	return st.Close()
}

// storeRoundTrip is the clean lifecycle: deferred Close, and rows read
// after the sweep, so nothing they reference can have been dropped by it.
func storeRoundTrip(dir string, keep func(string) bool) (*tensor.Tensor, error) {
	st, err := storage.NewTensorStore(dir, nil)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if _, _, err := st.GC(keep); err != nil {
		return nil, err
	}
	rows, err := st.ReadRows("embed", []int{0})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// storeSession owns its store; Close is the owner's job.
type storeSession struct {
	st *storage.TensorStore
}

func (s *storeSession) shutdown() error { return s.st.Close() }

// storeHandedToOwner stores the handle into a struct field: the obligation
// transfers to the session, whose shutdown method completes the protocol.
func storeHandedToOwner(dir string) (*storeSession, error) {
	st, err := storage.NewTensorStore(dir, nil)
	if err != nil {
		return nil, err
	}
	return &storeSession{st: st}, nil
}

// storeSuppressed pins a probe store open past the function on purpose.
func storeSuppressed(dir string, probe bool) error {
	//lint:ignore storelease probe stores are reclaimed by the harness
	st, err := storage.NewTensorStore(dir, nil)
	if err != nil {
		return err
	}
	if probe {
		return nil
	}
	return st.Close()
}

// storeErrReassigned re-assigns err between the open and the second guard:
// that guard reads the flush's error, not the open's, so returning from it
// still owes a Close. The first guard reads the open's own err and is
// exempt.
func storeErrReassigned(dir string, flush func() error) error {
	st, err := storage.NewTensorStore(dir, nil) // want "storelease: store st is not closed on every path to return; add defer st.Close() or close it on the missed branch"
	if err != nil {
		return err
	}
	err = flush()
	if err != nil {
		return err
	}
	return st.Close()
}

// storeCopyClosed closes the store through a `:=` copy of the handle.
// Copying a handle into another variable hands the obligation on (the
// escape rule), so this is clean before any value-flow question is asked.
func storeCopyClosed(dir string) error {
	st, err := storage.NewTensorStore(dir, nil)
	if err != nil {
		return err
	}
	st2 := st
	return st2.Close()
}

// storeCopyDeclClosed copies through a var declaration, which the escape
// rule does not see: only the value-flow query — st2's one reaching
// definition is a plain copy of the opened value — lets Close on the copy
// discharge the original.
func storeCopyDeclClosed(dir string) error {
	st, err := storage.NewTensorStore(dir, nil)
	if err != nil {
		return err
	}
	var st2 = st
	return st2.Close()
}
