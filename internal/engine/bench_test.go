package engine

import (
	"testing"

	"reactdb/internal/core"
	"reactdb/internal/rel"
)

// The BenchmarkEngine* benchmarks drive the storage hot path through the
// public engine surface: point reads, prefix scans and read-modify-writes
// issued by procedures against a single container with zeroed cost modeling,
// so the numbers isolate key encoding, index lookup, OCC bookkeeping and row
// codec work. The repository's benchmark reports the same layers on the real
// profile (kv.get_ns, occ.txn_ro_ns, occ.txn_rw_ns); these exist for quick
// `go test -bench` comparisons during development.

const (
	benchRows       = 4096
	benchReadsPerTx = 100
	benchRMWPerTx   = 10
	benchScanRows   = 1024
)

// benchKey returns a pseudorandom key id in [0, benchRows), deterministic in i
// so before/after runs touch identical key sequences.
func benchKey(i int) int64 {
	return int64((uint32(i) * 2654435761) % benchRows)
}

// benchType is a two-relation reactor sized so row decoding stays cheap
// relative to key handling: the hot-read path is dominated by encode + lookup
// + OCC bookkeeping, which is what the storage refactor targets.
func benchType() *core.Type {
	accounts := rel.MustSchema("accounts",
		[]rel.Column{{Name: "id", Type: rel.Int64}, {Name: "val", Type: rel.Int64}}, "id")

	t := core.NewType("BenchStore").AddRelation(accounts)

	t.AddProcedure("read_batch", func(ctx core.Context, args core.Args) (any, error) {
		start := int(args.Int64(0))
		var sum int64
		for i := 0; i < benchReadsPerTx; i++ {
			row, err := ctx.Get("accounts", benchKey(start+i))
			if err != nil {
				return nil, err
			}
			if row != nil {
				sum += row.Int64(1)
			}
		}
		return sum, nil
	})

	t.AddProcedure("rmw_batch", func(ctx core.Context, args core.Args) (any, error) {
		start := int(args.Int64(0))
		for i := 0; i < benchRMWPerTx; i++ {
			id := benchKey(start + i*7)
			row, err := ctx.Get("accounts", id)
			if err != nil {
				return nil, err
			}
			if row == nil {
				return nil, core.Abortf("missing row %d", id)
			}
			if err := ctx.Update("accounts", rel.Row{id, row.Int64(1) + 1}); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})

	t.AddProcedure("scan_sum", func(ctx core.Context, args core.Args) (any, error) {
		var sum int64
		n := 0
		err := ctx.Scan("accounts", func(row rel.Row) bool {
			sum += row.Int64(1)
			n++
			return n < benchScanRows
		})
		return sum, err
	})

	return t
}

func benchDB(b *testing.B) *Database {
	b.Helper()
	def := core.NewDatabaseDef()
	def.MustAddType(benchType())
	def.MustDeclareReactor("store-0", "BenchStore")
	db := MustOpen(def, Config{Containers: 1, ExecutorsPerContainer: 1})
	for i := 0; i < benchRows; i++ {
		db.MustLoad("store-0", "accounts", rel.Row{int64(i), int64(i) * 3})
	}
	return db
}

// BenchmarkEngineHotRead is the headline hot-read benchmark: each op is one
// transaction performing 100 point reads of pseudorandom keys.
func BenchmarkEngineHotRead(b *testing.B) {
	db := benchDB(b)
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute("store-0", "read_batch", int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchReadsPerTx), "ns/read")
}

// BenchmarkEngineScan measures a transactional prefix scan over 1024 rows.
func BenchmarkEngineScan(b *testing.B) {
	db := benchDB(b)
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute("store-0", "scan_sum"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchScanRows), "ns/row")
}

// BenchmarkEngineReadModifyWrite measures the write path: each op is one
// transaction performing 10 read-modify-writes (update buffering, write-set
// locking, validation, install).
func BenchmarkEngineReadModifyWrite(b *testing.B) {
	db := benchDB(b)
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute("store-0", "rmw_batch", int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRMWPerTx), "ns/rmw")
}
