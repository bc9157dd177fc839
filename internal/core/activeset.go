package core

import (
	"fmt"
	"sync"
)

// ActiveSet implements the dynamic intra-transaction safety condition of
// §2.2.4: for a given root transaction, at most one execution context may be
// active on a given reactor at any time. The runtime conservatively aborts a
// transaction that asynchronously invokes a sub-transaction on a reactor which
// already has another sub-transaction of the same root transaction active
// (cyclic call structures, or diamond-shaped asynchronous fan-ins).
//
// One ActiveSet exists per root transaction; its methods are safe for
// concurrent use by the executors running the transaction's sub-transactions.
// The zero value is an empty set, so a root transaction embeds it by value. A
// transaction is rarely active on more than a handful of reactors at once:
// those live in an inline array, and only a wider fan-out spills into a map.
type ActiveSet struct {
	mu     sync.Mutex
	inline [4]string
	n      int                 // reactors held in inline[:n]
	spill  map[string]struct{} // reactors beyond the inline array; nil until needed
}

// has reports membership. The caller holds a.mu.
func (a *ActiveSet) has(reactor string) bool {
	for _, r := range a.inline[:a.n] {
		if r == reactor {
			return true
		}
	}
	_, ok := a.spill[reactor]
	return ok
}

// Enter registers a new sub-transaction execution context on the reactor. It
// returns ErrDangerousStructure (wrapped with the reactor name) if another
// sub-transaction of the same root transaction is already active there.
func (a *ActiveSet) Enter(reactor string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.has(reactor) {
		return fmt.Errorf("%w: reactor %s", ErrDangerousStructure, reactor)
	}
	if a.n < len(a.inline) {
		a.inline[a.n] = reactor
		a.n++
		return nil
	}
	if a.spill == nil {
		a.spill = make(map[string]struct{})
	}
	a.spill[reactor] = struct{}{}
	return nil
}

// Exit unregisters a completed sub-transaction execution context.
func (a *ActiveSet) Exit(reactor string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, r := range a.inline[:a.n] {
		if r == reactor {
			a.n--
			a.inline[i] = a.inline[a.n]
			a.inline[a.n] = ""
			return
		}
	}
	delete(a.spill, reactor)
}

// ActiveOn reports whether the reactor currently has an active execution
// context for this root transaction.
func (a *ActiveSet) ActiveOn(reactor string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.has(reactor)
}

// Size returns the number of reactors with an active execution context.
func (a *ActiveSet) Size() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n + len(a.spill)
}
