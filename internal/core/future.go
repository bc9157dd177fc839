package core

import (
	"sync"
)

// Future represents the result of an asynchronous procedure call on a reactor
// (a sub-transaction), as in the paper's `execute` returning a promise. The
// calling code may wait for the result with Get, invoke procedures on other
// reactors first, or not wait at all: the runtime guarantees that a (sub-)
// transaction completes only when all the sub-transactions invoked in its
// context have completed.
type Future struct {
	mu       sync.Mutex
	wake     sync.Cond // signalled by Resolve; its Locker is set by the first Get that blocks
	resolved bool
	value    any
	err      error

	// onWait/onResume let the runtime release and re-acquire the executor's
	// virtual core while the caller blocks (cooperative multitasking, §3.2.3).
	onWait   func()
	onResume func()

	// onDeliver runs exactly once, on the first Get that returns the result to
	// the caller. The runtime uses it to charge the receive communication cost
	// Cr on the caller's core.
	onDeliver func()
	delivered bool
}

// NewFuture returns an unresolved future. The zero value is one too, so the
// runtime embeds a root transaction's future in the transaction's own state.
func NewFuture() *Future {
	return new(Future)
}

// ResolvedFuture returns a future that already carries a result; it is used
// for synchronously inlined sub-transaction calls, whose "future results are
// immediately available" (§2.2.4).
func ResolvedFuture(value any, err error) *Future {
	return &Future{resolved: true, value: value, err: err}
}

// SetWaitHooks installs callbacks invoked around a blocking Get. The runtime
// uses them to hand the executor's core to another request while this one is
// blocked on a remote sub-transaction.
func (f *Future) SetWaitHooks(onWait, onResume func()) {
	f.mu.Lock()
	f.onWait = onWait
	f.onResume = onResume
	f.mu.Unlock()
}

// SetDeliverHook installs a callback that runs exactly once, on the first Get
// that returns the result to the caller (whether or not that Get had to
// block).
func (f *Future) SetDeliverHook(onDeliver func()) {
	f.mu.Lock()
	f.onDeliver = onDeliver
	f.mu.Unlock()
}

// Resolve completes the future with a value and error. Resolving an already
// resolved future is a no-op so that races between result delivery and
// cancellation are harmless.
func (f *Future) Resolve(value any, err error) {
	f.mu.Lock()
	if f.resolved {
		f.mu.Unlock()
		return
	}
	f.value = value
	f.err = err
	f.resolved = true
	f.mu.Unlock()
	f.wake.Broadcast()
}

// Resolved reports whether the future already carries a result.
func (f *Future) Resolved() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.resolved
}

// Get blocks until the future is resolved and returns its value and error.
func (f *Future) Get() (any, error) {
	f.mu.Lock()
	if !f.resolved {
		onWait, onResume := f.onWait, f.onResume
		f.mu.Unlock()
		if onWait != nil {
			onWait()
		}
		f.mu.Lock()
		if f.wake.L == nil {
			f.wake.L = &f.mu
		}
		for !f.resolved {
			f.wake.Wait()
		}
		f.mu.Unlock()
		if onResume != nil {
			onResume()
		}
		f.mu.Lock()
	}
	v, err := f.value, f.err
	deliver := f.takeDeliverLocked()
	f.mu.Unlock()
	if deliver != nil {
		deliver()
	}
	return v, err
}

// takeDeliverLocked returns the deliver hook if it has not fired yet and marks
// it as fired. The caller holds f.mu.
func (f *Future) takeDeliverLocked() func() {
	if f.delivered || f.onDeliver == nil {
		return nil
	}
	f.delivered = true
	return f.onDeliver
}

// Err blocks until resolution and returns only the error; callers that ignore
// the value (e.g. fire-and-forget credits) use it in tests.
func (f *Future) Err() error {
	_, err := f.Get()
	return err
}

// GetFloat64 is a convenience accessor for procedures returning a number.
func (f *Future) GetFloat64() (float64, error) {
	v, err := f.Get()
	if err != nil {
		return 0, err
	}
	switch x := v.(type) {
	case float64:
		return x, nil
	case int64:
		return float64(x), nil
	case int:
		return float64(x), nil
	case nil:
		return 0, nil
	default:
		return 0, Abortf("future value %T is not a number", v)
	}
}

// GetInt64 is a convenience accessor for procedures returning an integer.
func (f *Future) GetInt64() (int64, error) {
	v, err := f.Get()
	if err != nil {
		return 0, err
	}
	switch x := v.(type) {
	case int64:
		return x, nil
	case int:
		return int64(x), nil
	case nil:
		return 0, nil
	default:
		return 0, Abortf("future value %T is not an integer", v)
	}
}

// WaitAll resolves a set of futures, returning the first error encountered
// (after waiting for all of them, so no sub-transaction is left running).
func WaitAll(futures ...*Future) error {
	var firstErr error
	for _, f := range futures {
		if f == nil {
			continue
		}
		if _, err := f.Get(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
