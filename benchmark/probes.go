package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"reactdb/internal/engine"
	"reactdb/internal/kv"
	"reactdb/internal/occ"
	"reactdb/internal/rel"
	"reactdb/internal/wal"
	"reactdb/internal/workload/smallbank"
)

// prober runs the single-threaded probe ladder of a traced run: each probe
// times calls into one exported layer entry point from outside, under a span
// named after the metric it feeds with one child span per iteration.
type prober struct {
	rec    *recorder
	parent int
	iters  int
	out    map[string]metric
}

func (p *prober) set(name string, v float64, unit string) { p.out[name] = metric{v, unit} }

// each times fn iters times and returns the durations, sorted.
func (p *prober) each(name string, iters int, fn func(i int) error) ([]time.Duration, error) {
	id := p.rec.begin("probe."+name, p.parent)
	defer p.rec.end(id)
	ds := make([]time.Duration, iters)
	for i := range ds {
		start := time.Now()
		if err := fn(i); err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		ds[i] = time.Since(start)
		p.rec.add("iteration", id, i+1, start, ds[i])
	}
	slices.Sort(ds)
	return ds, nil
}

func p50us(sorted []time.Duration) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[len(sorted)/2].Nanoseconds()) / 1e3
}

func meanNs(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum.Nanoseconds()) / float64(len(ds))
}

// fleetProbes walks one request's path on the idle fleet, outermost layer
// first: wire only, wire minus engine, procedure, commit wait. It draws its
// keys from slot 0's customers with the run's seed. The deposits it makes are
// returned so that the correctness gate can account for them.
func (p *prober) fleetProbes(f *fleet, seed int64, names []string) (deposits int64, err error) {
	rng := rand.New(rand.NewSource(seed))
	c := &customerSet{slot: 0, slots: f.w.slots(), customers: f.customers, names: names}
	reads := make([]op, p.iters)
	for i := range reads {
		reads[i] = drawBalance(rng, c)
	}
	conn := f.prim[0]

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rtt, err := p.each("server.stats_rtt_p50_us", p.iters, func(int) error {
		_, e := conn.Stats()
		return e
	})
	if err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&ms1)
	p.set("server.stats_rtt_p50_us", p50us(rtt), "us")
	p.set("server.allocs_per_rtt", float64(ms1.Mallocs-ms0.Mallocs)/float64(p.iters), "count")

	wire, err := p.each("server.exec_overhead_p50_us", p.iters, func(i int) error {
		_, e := conn.Execute(reads[i].reactor, reads[i].proc)
		return e
	})
	if err != nil {
		return 0, err
	}

	profiled := func(name string, ops []op) (total []time.Duration, profs []engine.Profile, err error) {
		profs = make([]engine.Profile, len(ops))
		total, err = p.each(name, len(ops), func(i int) (e error) {
			_, profs[i], e = f.db.ExecuteProfiled(ops[i].reactor, ops[i].proc, ops[i].args...)
			return e
		})
		return total, profs, err
	}
	part := func(profs []engine.Profile, get func(engine.Profile) time.Duration) float64 {
		ds := make([]time.Duration, len(profs))
		for i, pr := range profs {
			ds[i] = get(pr)
		}
		slices.Sort(ds)
		return p50us(ds)
	}
	commit := func(pr engine.Profile) time.Duration { return pr.Commit }

	inproc, profs, err := profiled("engine.exec_read_p50_us", reads)
	if err != nil {
		return 0, err
	}
	p.set("engine.exec_read_p50_us", p50us(inproc), "us")
	p.set("server.exec_overhead_p50_us", p50us(wire)-p50us(inproc), "us")
	p.set("engine.commit_read_p50_us", part(profs, commit), "us")
	// The engine does not fill in Profile.SyncExec today; what is left of the
	// total after the commit protocol and blocked waits is dispatch, queueing
	// and the procedure itself.
	p.set("engine.syncexec_p50_us", part(profs, func(pr engine.Profile) time.Duration { return pr.Total - pr.Commit - pr.BlockedWait }), "us")

	writes := make([]op, p.iters)
	for i := range writes {
		writes[i] = drawDeposit(rng, c)
	}
	inproc, profs, err = profiled("engine.exec_write_p50_us", writes)
	if err != nil {
		return 0, err
	}
	p.set("engine.exec_write_p50_us", p50us(inproc), "us")
	p.set("engine.commit_write_p50_us", part(profs, commit), "us")

	// A transfer blocks on its remote credit only when source and destination
	// live in different containers; elsewhere the call is inlined and this
	// reads about zero.
	xfers := make([]op, p.iters/2)
	for i := range xfers {
		xfers[i] = drawTransfer(rng, c)
	}
	_, profs, err = profiled("engine.blocked_wait_p50_us", xfers)
	if err != nil {
		return 0, err
	}
	p.set("engine.blocked_wait_p50_us", part(profs, func(pr engine.Profile) time.Duration { return pr.BlockedWait }), "us")

	// Shipping cost: read the whole log of container 0 back the way a replica
	// does.
	cur := wal.NewShipCursor(wal.NewFileStorage(filepath.Join(f.dir, "primary")).Sub("container-0"), 0)
	id := p.rec.begin("probe.wal.ship_poll_us_per_record", p.parent)
	start := time.Now()
	recs, err := cur.Poll(math.MaxUint64, nil)
	elapsed := time.Since(start)
	p.rec.end(id)
	if err != nil {
		return 0, fmt.Errorf("probe ship poll: %w", err)
	}
	perRecord := 0.0
	if len(recs) > 0 {
		perRecord = float64(elapsed.Nanoseconds()) / 1e3 / float64(len(recs))
	}
	p.set("wal.ship_poll_us_per_record", perRecord, "us")
	return int64(len(writes)), nil
}

// standaloneProbes time the layers below the engine on their own data: an OCC
// domain over a table the size of one relation of the fleet, the B-tree under
// it, and a write-ahead log on the same file system.
func (p *prober) standaloneProbes(rows int, dir string) error {
	schema := smallbank.Schemas()[1] // savings: cust_id, balance
	tbl := rel.NewTable(schema)
	ids := make([]any, rows)
	for i := range ids {
		ids[i] = int64(i)
	}
	start := time.Now()
	id := p.rec.begin("probe.rel.load_row_ns", p.parent)
	for i := 0; i < rows; i++ {
		if err := tbl.LoadRow(rel.Row{ids[i], initialBalance}); err != nil {
			return fmt.Errorf("probe rel load: %w", err)
		}
	}
	p.rec.end(id)
	p.set("rel.load_row_ns", float64(time.Since(start).Nanoseconds())/float64(rows), "ns")

	// One timestamp pair per batch: a lookup is shorter than a clock read.
	const batch = 1000
	batches := max(1, rows/batch)
	at := func(b, i int) int { return (b*batch + i) * 7919 % rows } // 7919 is prime: a scattered walk
	var scratch [16]byte
	keyOf := func(j int) []byte {
		key, err := schema.AppendKeyPrefix(scratch[:0], ids[j:j+1])
		if err != nil {
			panic(err) // an int64 always encodes
		}
		return key
	}
	perOp := func(name string, fn func(b int) error) error {
		ds, err := p.each(name, batches, fn)
		if err == nil {
			p.set(name, meanNs(ds)/batch, "ns")
		}
		return err
	}

	if err := perOp("rel.get_ns", func(b int) error {
		for i := 0; i < batch; i++ {
			if tbl.Get(keyOf(at(b, i))) == nil {
				return fmt.Errorf("row %d missing", at(b, i))
			}
		}
		return nil
	}); err != nil {
		return err
	}

	domain := occ.NewDomain("probe")
	if err := perOp("occ.txn_ro_ns", func(b int) error {
		for i := 0; i < batch; i++ {
			txn := domain.Begin()
			for k := 0; k < 3; k++ {
				if _, _, err := txn.Read(tbl.Get(keyOf(at(b, i+k)))); err != nil {
					return err
				}
			}
			if _, err := txn.Commit(); err != nil {
				return err
			}
			txn.Release()
		}
		return nil
	}); err != nil {
		return err
	}
	if err := perOp("occ.txn_rw_ns", func(b int) error {
		for i := 0; i < batch; i++ {
			txn := domain.Begin()
			key := keyOf(at(b, i))
			rec := tbl.Get(key)
			data, _, err := txn.Read(rec)
			if err != nil {
				return err
			}
			if err := txn.Write(rec, key, data, nil); err != nil {
				return err
			}
			if _, err := txn.Commit(); err != nil {
				return err
			}
			txn.Release()
		}
		return nil
	}); err != nil {
		return err
	}

	tree := kv.NewBTree()
	keys := make([][]byte, rows)
	recs := make([]*kv.Record, rows)
	for i := range keys {
		keys[i] = slices.Clone(keyOf(i))
		recs[i] = kv.NewCommittedRecord(nil, 0)
	}
	if err := perOp("kv.insert_ns", func(b int) error {
		for i := 0; i < batch; i++ {
			j := at(b, i)
			tree.Insert(keys[j], recs[j])
		}
		return nil
	}); err != nil {
		return err
	}
	if err := perOp("kv.get_ns", func(b int) error {
		for i := 0; i < batch; i++ {
			if tree.Get(keys[at(b, i)]) == nil {
				return fmt.Errorf("key %d missing", at(b, i))
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// One deposit-sized record per append, then one fsync.
	log, err := wal.Open(wal.NewFileStorage(filepath.Join(dir, "walprobe")), wal.Options{})
	if err != nil {
		return fmt.Errorf("probe wal open: %w", err)
	}
	defer log.Close()
	rec := wal.Record{Kind: wal.KindCommit, Writes: []wal.Write{{
		Key:  "cust-000000\x00checking\x00" + string(keys[0]),
		Data: make([]byte, 18),
	}}}
	id = p.rec.begin("probe.wal.append_fsync", p.parent)
	defer p.rec.end(id)
	appends, syncs := make([]time.Duration, p.iters), make([]time.Duration, p.iters)
	for i := range appends {
		rec.TID = uint64(i + 1)
		t0 := time.Now()
		if _, err := log.AppendBatch([]wal.Record{rec}); err != nil {
			return fmt.Errorf("probe wal append: %w", err)
		}
		t1 := time.Now()
		if err := log.Sync(); err != nil {
			return fmt.Errorf("probe wal sync: %w", err)
		}
		appends[i], syncs[i] = t1.Sub(t0), time.Since(t1)
		p.rec.add("wal.append", id, i+1, t0, appends[i])
		p.rec.add("wal.fsync", id, i+1, t1, syncs[i])
	}
	slices.Sort(appends)
	slices.Sort(syncs)
	p.set("wal.append_p50_us", p50us(appends), "us")
	p.set("wal.fsync_p50_us", p50us(syncs), "us")
	return nil
}
