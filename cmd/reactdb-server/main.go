// Command reactdb-server runs a reactdb node fleet in one process: a WAL
// primary preloaded with the smallbank workload, plus any number of read
// replicas tailing its log (each ships what the primary's fsyncs make durable,
// woken by the fsync itself), each node exposed on its own TCP listener via
// the length-prefixed wire protocol. Remote clients dial the printed addresses
// with server.Dial, or hand the whole list to server.NewRouter, which sends
// writes to the primary, rotates reads over every node and follows the
// primary across a failover. Each listener fronts its node for life: after a
// failover the promoted replica's listener answers as the primary, the
// deposed primary's answers NotPrimary, and the others keep serving their
// re-pointed replicas.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"reactdb/internal/engine"
	"reactdb/internal/server"
	"reactdb/internal/wal"
	"reactdb/internal/workload/smallbank"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7421", "primary listen address")
	replicas := flag.Int("replicas", 1, "number of read replicas (each gets an ephemeral listener)")
	customers := flag.Int("customers", 1024, "smallbank customers to preload")
	executors := flag.Int("executors", 4, "executors in the primary's container")
	ack := flag.String("ack", "async", "replication ack mode: async or semisync")
	maxInFlight := flag.Int("max-inflight", 64, "per-session pipelining window")
	supervise := flag.Bool("supervise", false, "run a failover supervisor: heartbeat the primary and, on persistent failure, fence it, promote the freshest semi-sync replica in place and re-point the others; every listener keeps fronting its node (requires -ack=semisync and -replicas >= 1)")
	flag.Parse()

	ackMode := engine.AckAsync
	switch strings.ToLower(*ack) {
	case "async":
	case "semisync":
		ackMode = engine.AckSemiSync
	default:
		log.Fatalf("unknown -ack %q (want async or semisync)", *ack)
	}

	cfg := engine.NewSharedEverythingWithAffinity(*executors)
	cfg.GroupCommit = engine.GroupCommitConfig{Enabled: true, Window: 200 * time.Microsecond, MaxBatch: 32}
	cfg.Durability = engine.DurabilityConfig{Mode: engine.DurabilityWAL, Storage: wal.NewMemStorage()}

	db, err := engine.Open(smallbank.NewDefinition(*customers), cfg)
	if err != nil {
		log.Fatalf("open primary: %v", err)
	}
	defer db.Close()
	if err := smallbank.Load(db, *customers, 1e9, 1e9); err != nil {
		log.Fatalf("load smallbank: %v", err)
	}
	if err := db.Checkpoint(); err != nil {
		log.Fatalf("checkpoint: %v", err)
	}

	opts := server.Options{MaxInFlight: *maxInFlight}
	primary := server.NewPrimary(db, opts)
	defer primary.Close()
	pAddr, err := primary.Start(*addr)
	if err != nil {
		log.Fatalf("listen primary: %v", err)
	}
	fmt.Printf("listening role=primary addr=%s customers=%d executors=%d\n", pAddr, *customers, *executors)

	var engineReps []*engine.Replica
	for i := 0; i < *replicas; i++ {
		rep, err := engine.OpenReplica(db, engine.ReplicaOptions{Ack: ackMode})
		if err != nil {
			log.Fatalf("open replica %d: %v", i, err)
		}
		defer rep.Close()
		if err := rep.WaitCaughtUp(10 * time.Second); err != nil {
			log.Fatalf("replica %d catch-up: %v", i, err)
		}
		rs := server.NewReplica(rep, opts)
		defer rs.Close()
		rAddr, err := rs.Start("127.0.0.1:0")
		if err != nil {
			log.Fatalf("listen replica %d: %v", i, err)
		}
		fmt.Printf("listening role=replica addr=%s ack=%s\n", rAddr, strings.ToLower(*ack))
		engineReps = append(engineReps, rep)
	}

	if *supervise {
		if ackMode != engine.AckSemiSync || len(engineReps) == 0 {
			log.Fatalf("-supervise requires -ack=semisync and -replicas >= 1 (failover is lossless only for semi-sync acks)")
		}
		// On failover every listener stays up and keeps fronting its node,
		// which changes role in place: no listener is touched. Clients keep
		// their addresses; the router re-points writes by epoch.
		sup := engine.NewSupervisor(db, engineReps, engine.SupervisorOptions{
			OnPromote: func(promoted *engine.Database) {
				fmt.Printf("failover: promoted replica to primary at epoch %d\n", promoted.Epoch())
			},
		})
		sup.Start()
		defer sup.Stop()
		fmt.Println("supervisor running: heartbeating primary")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
}
