package bench

import (
	"errors"
	"math"
	"testing"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/engine"
	"reactdb/internal/rel"
)

func counterDB(t testing.TB) *engine.Database {
	t.Helper()
	schema := rel.MustSchema("counter",
		[]rel.Column{{Name: "id", Type: rel.Int64}, {Name: "value", Type: rel.Int64}}, "id")
	typ := core.NewType("Counter").AddRelation(schema).
		AddProcedure("incr", func(ctx core.Context, args core.Args) (any, error) {
			row, err := ctx.Get("counter", int64(0))
			if err != nil {
				return nil, err
			}
			return nil, ctx.Update("counter", rel.Row{int64(0), row.Int64(1) + 1})
		}).
		AddProcedure("fail", func(ctx core.Context, args core.Args) (any, error) {
			return nil, core.Abortf("always fails")
		}).
		AddProcedure("broken", func(ctx core.Context, args core.Args) (any, error) {
			return nil, errors.New("infrastructure error")
		})
	def := core.NewDatabaseDef().MustAddType(typ)
	def.MustDeclareReactors("Counter", "ctr-0", "ctr-1")
	db := engine.MustOpen(def, engine.NewSharedNothing(2))
	db.MustLoad("ctr-0", "counter", rel.Row{int64(0), int64(0)})
	db.MustLoad("ctr-1", "counter", rel.Row{int64(0), int64(0)})
	t.Cleanup(db.Close)
	return db
}

func TestRunCollectsEpochs(t *testing.T) {
	db := counterDB(t)
	opts := Options{Workers: 2, Epochs: 3, EpochDuration: 30 * time.Millisecond, Warmup: 10 * time.Millisecond}
	result, err := Run(db, opts, func(worker int) Generator {
		reactor := "ctr-0"
		if worker%2 == 1 {
			reactor = "ctr-1"
		}
		return func() Request { return Request{Reactor: reactor, Procedure: "incr"} }
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(result.Epochs) != 3 {
		t.Fatalf("epochs = %d, want 3", len(result.Epochs))
	}
	tp, _ := result.Throughput()
	if tp <= 0 {
		t.Fatalf("throughput should be positive, got %v", tp)
	}
	lat, _ := result.Latency()
	if lat <= 0 {
		t.Fatalf("latency should be positive")
	}
	// Throughput is computed over the time the epoch really lasted, which is
	// never shorter than the sleep that bounds it.
	for i, e := range result.Epochs {
		if e.Duration < opts.EpochDuration {
			t.Fatalf("epoch %d lasted %v, shorter than the %v asked for", i, e.Duration, opts.EpochDuration)
		}
		if got := e.Throughput * e.Duration.Seconds(); math.Abs(got-float64(e.Committed)) > 1e-6 {
			t.Fatalf("epoch %d: throughput x duration = %v, want %d committed", i, got, e.Committed)
		}
	}
	// The committed count matches the database state (no lost transactions in
	// accounting): counter values >= total committed during measurement.
	row0, _ := db.ReadRow("ctr-0", "counter", int64(0))
	row1, _ := db.ReadRow("ctr-1", "counter", int64(0))
	if int(row0.Int64(1)+row1.Int64(1)) < result.TotalCommitted() {
		t.Fatalf("accounting shows more commits than the database recorded")
	}
}

func TestRunCountsUserAbortsAsAborted(t *testing.T) {
	db := counterDB(t)
	opts := Options{Workers: 1, Epochs: 2, EpochDuration: 20 * time.Millisecond}
	result, err := Run(db, opts, func(int) Generator {
		return func() Request { return Request{Reactor: "ctr-0", Procedure: "fail"} }
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if result.AbortRate() != 1.0 {
		t.Fatalf("abort rate = %v, want 1.0", result.AbortRate())
	}
}

func TestRunStopsOnInfrastructureError(t *testing.T) {
	db := counterDB(t)
	opts := Options{Workers: 1, Epochs: 1, EpochDuration: 20 * time.Millisecond}
	_, err := Run(db, opts, func(int) Generator {
		return func() Request { return Request{Reactor: "ctr-0", Procedure: "broken"} }
	})
	if err == nil {
		t.Fatalf("infrastructure errors should surface from Run")
	}
}

func TestRunDefaultsApplied(t *testing.T) {
	db := counterDB(t)
	result, err := Run(db, Options{EpochDuration: 10 * time.Millisecond}, func(int) Generator {
		return func() Request { return Request{Reactor: "ctr-0", Procedure: "incr"} }
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(result.Epochs) != 1 {
		t.Fatalf("default epochs should be 1, got %d", len(result.Epochs))
	}
}

func TestMeasureProfiles(t *testing.T) {
	db := counterDB(t)
	summary, err := MeasureProfiles(db, 20, func() Request {
		return Request{Reactor: "ctr-1", Procedure: "incr"}
	})
	if err != nil {
		t.Fatalf("MeasureProfiles: %v", err)
	}
	if summary.Count != 20 || summary.Aborts != 0 {
		t.Fatalf("summary counts wrong: %+v", summary)
	}
	if summary.MeanTotal <= 0 || summary.MeanCommit < 0 {
		t.Fatalf("summary durations not populated: %+v", summary)
	}
	// Aborting transactions are counted but excluded from averages.
	summary, err = MeasureProfiles(db, 5, func() Request {
		return Request{Reactor: "ctr-0", Procedure: "fail"}
	})
	if err != nil {
		t.Fatalf("MeasureProfiles aborts: %v", err)
	}
	if summary.Count != 0 || summary.Aborts != 5 {
		t.Fatalf("abort accounting wrong: %+v", summary)
	}
	// Infrastructure errors surface.
	if _, err := MeasureProfiles(db, 1, func() Request {
		return Request{Reactor: "ctr-0", Procedure: "broken"}
	}); err == nil {
		t.Fatalf("expected error for broken procedure")
	}
}

func TestDefaultOptions(t *testing.T) {
	opts := DefaultOptions(4)
	if opts.Workers != 4 || opts.Epochs <= 0 || opts.EpochDuration <= 0 {
		t.Fatalf("DefaultOptions wrong: %+v", opts)
	}
}
