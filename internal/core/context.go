package core

import (
	"math/rand"
	"time"

	"reactdb/internal/rel"
)

// Context is the execution interface a procedure sees while running as a
// (sub-)transaction on a reactor. It provides declarative access to the
// relations encapsulated by the current reactor only; state of other reactors
// is reachable exclusively through asynchronous procedure calls (Call), as
// required by the programming model (§2.2.2).
//
// All data access methods operate under the root transaction's concurrency
// control context, so their effects are atomic, isolated and rolled back on
// abort.
type Context interface {
	// Reactor returns the name of the reactor this (sub-)transaction executes
	// on, the equivalent of the paper's my_name().
	Reactor() string

	// Schema returns the schema of one of the current reactor's relations, so
	// procedures can resolve column positions once.
	Schema(relation string) (*rel.Schema, error)

	// Get reads the row of the relation with the given primary key values. It
	// returns (nil, nil) if the row does not exist.
	Get(relation string, keyVals ...any) (rel.Row, error)

	// GetView reads the row like Get but returns a lazy, allocation-free
	// rel.RowView over the stored payload instead of materializing a Row;
	// hot read-mostly procedures use it to stay off the allocator. The view
	// is valid only until the transaction ends and its Bytes accessor aliases
	// engine-owned memory (read-only). The bool reports row presence.
	GetView(relation string, keyVals ...any) (rel.RowView, bool, error)

	// Insert adds a new row. It fails if the primary key already exists.
	Insert(relation string, row rel.Row) error

	// Update replaces the row whose primary key matches row's key columns.
	// It fails with ErrNoSuchRow if the row does not exist.
	Update(relation string, row rel.Row) error

	// Delete removes the row with the given primary key values. It fails with
	// ErrNoSuchRow if the row does not exist.
	Delete(relation string, keyVals ...any) error

	// Scan iterates the relation in primary key order, restricted to rows
	// whose leading key columns equal prefixVals (pass none to scan the whole
	// relation). The callback returns false to stop early. Scans register the
	// relation for phantom validation.
	Scan(relation string, fn func(row rel.Row) bool, prefixVals ...any) error

	// ScanDesc is Scan in descending key order (used e.g. for "latest N
	// orders" style queries).
	ScanDesc(relation string, fn func(row rel.Row) bool, prefixVals ...any) error

	// SelectAll returns every row of the relation with the given key prefix.
	SelectAll(relation string, prefixVals ...any) ([]rel.Row, error)

	// Query executes a declarative read-only query (see rel.NewQuery) in the
	// context of the current root transaction. Sources naming no reactors
	// read the current reactor's relations; sources naming other reactors
	// fan out as read sub-transactions over the same future machinery as
	// Call, so the result is serializable with every other transaction.
	Query(q *rel.Query) (*rel.Result, error)

	// Call asynchronously invokes a procedure on another reactor — the
	// paper's `procedure_name(args) on reactor reactor_name`. It returns a
	// future for the sub-transaction's result. A call addressed to the
	// current reactor is inlined and executed synchronously; its future is
	// already resolved on return. The root transaction completes only after
	// every sub-transaction spawned in its context completes, whether or not
	// the caller waits on the future.
	Call(reactor, procedure string, args ...any) (*Future, error)

	// CallSync invokes a procedure on another reactor and waits for its
	// result, the shared formulation of "call get() immediately".
	CallSync(reactor, procedure string, args ...any) (any, error)

	// Work simulates CPU-bound processing of the given duration on the
	// executor's virtual core (package vclock). Benchmarks use it to model
	// computation such as the paper's sim_risk or stock replenishment logic.
	Work(d time.Duration)

	// Rand returns a per-transaction pseudo random source, for procedures with
	// nondeterministic logic (e.g. Monte-Carlo style risk simulation).
	Rand() *rand.Rand
}

// Helper aggregations over rows returned by Context queries. They mirror the
// aggregate queries used in the paper's examples (e.g. SELECT SUM(value)).

// SumFloat64 scans the relation (restricted to the key prefix) and sums the
// named column.
func SumFloat64(ctx Context, relation, column string, prefixVals ...any) (float64, error) {
	schema, err := ctx.Schema(relation)
	if err != nil {
		return 0, err
	}
	colIdx := schema.Col(column)
	if colIdx < 0 {
		return 0, Abortf("relation %s has no column %s", relation, column)
	}
	var sum float64
	err = ctx.Scan(relation, func(row rel.Row) bool {
		sum += row.Float64(colIdx)
		return true
	}, prefixVals...)
	if err != nil {
		return 0, err
	}
	return sum, nil
}

// CountRows counts rows of the relation with the given key prefix.
func CountRows(ctx Context, relation string, prefixVals ...any) (int, error) {
	count := 0
	err := ctx.Scan(relation, func(rel.Row) bool {
		count++
		return true
	}, prefixVals...)
	return count, err
}
