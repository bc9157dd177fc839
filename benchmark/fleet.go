package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/engine"
	"reactdb/internal/server"
	"reactdb/internal/vclock"
	"reactdb/internal/wal"
	"reactdb/internal/workload/smallbank"
)

// fleet is everything one workload runs against: a primary on real files,
// optionally a semi-sync replica, a TCP listener per node and the client
// connections.
type fleet struct {
	w         workload
	customers int
	dir       string
	def       *core.DatabaseDef

	db      *engine.Database
	rep     *engine.Replica
	primSrv *server.Server
	replSrv *server.Server
	prim    []*server.Conn // one per client
	repl    []*server.Conn // one per client, nil without a replica
}

// realConfig is the profile every workload runs under: no modeled costs, a
// write-ahead log on real files with real fsync, and group commit exactly as
// cmd/reactdb-server ships it.
func realConfig(w workload, customers int, dir string) engine.Config {
	cfg := engine.NewSharedEverythingWithAffinity(2)
	if w.sharedNothing {
		cfg = engine.NewSharedNothing(2)
		cfg.Placement = smallbank.RangePlacement(customers / 2)
	}
	cfg.GroupCommit = engine.GroupCommitConfig{Enabled: true, Window: 200 * time.Microsecond, MaxBatch: 32}
	cfg.Durability = engine.DurabilityConfig{Mode: engine.DurabilityWAL, Storage: wal.NewFileStorage(filepath.Join(dir, "primary"))}
	return cfg
}

// buildFleet opens, loads, checkpoints, replicates, listens and dials, in that
// order, recording a span around each step under parent.
func buildFleet(w workload, customers int, dir string, rec *recorder, parent int) (f *fleet, err error) {
	build := rec.begin("setup.build", parent)
	defer rec.end(build)
	step := func(name string, fn func() error) {
		if err != nil {
			return
		}
		id := rec.begin(name, build)
		if e := fn(); e != nil {
			err = fmt.Errorf("%s: %w", name, e)
		}
		rec.end(id)
	}

	cfg := realConfig(w, customers, dir)
	if cfg.Costs != (vclock.Costs{}) {
		return nil, errors.New("benchmark: the real profile runs with zero Costs")
	}
	f = &fleet{w: w, customers: customers, dir: dir}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()

	step("engine.open", func() (e error) {
		f.def = smallbank.NewDefinition(customers)
		f.db, e = engine.Open(f.def, cfg)
		return e
	})
	step("engine.load", func() error { return smallbank.Load(f.db, customers, initialBalance, initialBalance) })
	step("engine.checkpoint", func() error { return f.db.Checkpoint() })
	if w.replica {
		step("engine.replica_bootstrap", func() (e error) {
			f.rep, e = engine.OpenReplica(f.db, engine.ReplicaOptions{
				Ack:     engine.AckSemiSync,
				Storage: wal.NewFileStorage(filepath.Join(dir, "replica")),
			})
			if e != nil {
				return e
			}
			return f.rep.WaitCaughtUp(30 * time.Second)
		})
	}
	step("server.listen_dial", func() error {
		f.primSrv = server.NewPrimary(f.db, server.Options{})
		addr, e := f.primSrv.Start("127.0.0.1:0")
		if e != nil {
			return e
		}
		if f.prim, e = dialAll(addr.String()); e != nil {
			return e
		}
		if f.rep == nil {
			return nil
		}
		f.replSrv = server.NewReplica(f.rep, server.Options{})
		if addr, e = f.replSrv.Start("127.0.0.1:0"); e != nil {
			return e
		}
		f.repl, e = dialAll(addr.String())
		return e
	})
	return f, err
}

func dialAll(addr string) ([]*server.Conn, error) {
	conns := make([]*server.Conn, 0, clients)
	for i := 0; i < clients; i++ {
		c, err := server.Dial(addr)
		if err != nil {
			return conns, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

// close stops the network side, then the replica, then the primary. The files
// stay, so that the log can be reopened and recovered.
func (f *fleet) close() {
	for _, c := range append(f.prim, f.repl...) {
		_ = c.Close() // only read from here on
	}
	f.prim, f.repl = nil, nil
	for _, s := range []*server.Server{f.primSrv, f.replSrv} {
		if s != nil {
			s.Close()
		}
	}
	f.primSrv, f.replSrv = nil, nil
	if f.rep != nil {
		f.rep.Close()
		f.rep = nil
	}
	if f.db != nil {
		f.db.Close()
		f.db = nil
	}
}

// reopen closes the fleet and brings the primary back from its files alone:
// open on the same directory, then Recover. It returns the recovered database,
// how long recovery took and how many transactions it replayed.
func (f *fleet) reopen() (*engine.Database, time.Duration, int, error) {
	f.close()
	cfg := realConfig(f.w, f.customers, f.dir)
	start := time.Now()
	db, err := engine.Open(f.def, cfg)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("reopen: %w", err)
	}
	n, err := db.Recover()
	if err != nil {
		db.Close()
		return nil, 0, 0, fmt.Errorf("recover: %w", err)
	}
	return db, time.Since(start), n, nil
}
