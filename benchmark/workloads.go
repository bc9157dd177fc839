package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"reactdb/internal/workload/smallbank"
)

// opKind is the smallbank procedure an operation runs.
type opKind uint8

const (
	opBalance opKind = iota
	opDeposit
	opTransfer
)

// initialBalance is what every savings and every checking account is loaded
// with; a customer's balance is twice that until a deposit reaches it.
const initialBalance = 1e9

// op is one pre-generated client request. Reactor names and boxed arguments
// are built before timing starts, so issuing an op allocates nothing in the
// harness.
type op struct {
	kind      opKind
	onReplica bool // issue on the replica connection with a freshness bound
	reactor   string
	proc      string
	args      []any
}

// workload fixes a traffic mix and the deployment it runs on. The names are
// referred to by BENCHMARK.json and by later issues; do not rename them.
type workload struct {
	name string
	// inflight is the number of closed-loop slots multiplexed on each of the
	// two client connections.
	inflight      int
	sharedNothing bool // two containers, range placement, every op crosses them
	replica       bool // one semi-sync replica; reads go there
	recoverCheck  bool // reopen + Recover after the run and re-check the total
	draw          func(rng *rand.Rand, c *customerSet) op
}

// clients is the number of client connections per node. It equals this
// host's CPU count; more connections than cores made every metric swing.
const clients = 2

// Only two load shapes repeat on a small shared host, and every workload sits
// in one of them. With one or two operations in flight per connection the
// process is mostly idle, a group-commit window timer that finds every P
// asleep in epoll fires after about 1 ms instead of 200 µs (the runtime rounds
// a sub-millisecond wait up), and that constant dominates the latency. With 16
// in flight per connection and no disk in the way both CPUs are busy and the
// timers fire on time. In between, and wherever fsync is most of a commit
// cycle, runs of the same code differ by a quarter; see README.md.
var workloads = []workload{
	{name: "read-wire", inflight: 1, draw: drawBalance},
	{name: "read-sat", inflight: 16, draw: drawBalance},
	{name: "write-wire", inflight: 2, recoverCheck: true, draw: drawDeposit},
	{name: "xfer-2pc", inflight: 1, sharedNothing: true, recoverCheck: true, draw: drawTransfer},
	{name: "repl-mixed", inflight: 1, replica: true, draw: drawReplMixed},
}

func workloadNamed(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) slots() int { return clients * w.inflight }

// customerSet is the part of the customer id space one slot may touch: ids
// congruent to slot modulo slots. Slots therefore never share a reactor, so
// no two in-flight operations can conflict and no operation can fail.
type customerSet struct {
	slot, slots, customers int
	names                  []string // ReactorName(id) for every id, shared
}

// pick draws a customer of this slot from [lo, hi); lo must be a multiple of
// slots so that the congruence survives the offset.
func (c *customerSet) pick(rng *rand.Rand, lo, hi int) int {
	return lo + c.slot + c.slots*rng.Intn((hi-lo)/c.slots)
}

func drawBalance(rng *rand.Rand, c *customerSet) op {
	id := c.pick(rng, 0, c.customers)
	return op{kind: opBalance, reactor: c.names[id], proc: smallbank.ProcBalance}
}

func drawDeposit(rng *rand.Rand, c *customerSet) op {
	id := c.pick(rng, 0, c.customers)
	return op{kind: opDeposit, reactor: c.names[id], proc: smallbank.ProcDepositChecking, args: []any{1.0}}
}

// drawTransfer moves 1.0 from a customer in the lower half of the id space
// (container 0 under range placement) to one in the upper half (container 1).
func drawTransfer(rng *rand.Rand, c *customerSet) op {
	half := c.customers / 2
	src := c.names[c.pick(rng, 0, half)]
	dst := c.names[c.pick(rng, half, c.customers)]
	return op{kind: opTransfer, reactor: src, proc: smallbank.ProcTransfer, args: []any{src, dst, 1.0, false}}
}

// drawReplMixed sends four deposits to the primary for every bounded-freshness
// read on the replica. With the writes in the majority both gated percentiles
// lie in the semi-sync commit; the reads are there to be checked and to keep
// the replica's read path busy beside its apply loop.
func drawReplMixed(rng *rand.Rand, c *customerSet) op {
	if rng.Intn(5) != 0 {
		return drawDeposit(rng, c)
	}
	o := drawBalance(rng, c)
	o.onReplica = true
	return o
}

// reactorNames formats every customer's reactor name once.
func reactorNames(customers int) []string {
	names := make([]string, customers)
	for i := range names {
		names[i] = smallbank.ReactorName(i)
	}
	return names
}

// opStreams generates, from the seed alone, the ring of operations each slot
// cycles through.
func opStreams(w workload, seed int64, customers, ringLen int, names []string) [][]op {
	streams := make([][]op, w.slots())
	for s := range streams {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(s)))
		c := &customerSet{slot: s, slots: w.slots(), customers: customers, names: names}
		ring := make([]op, ringLen)
		for i := range ring {
			ring[i] = w.draw(rng, c)
		}
		streams[s] = ring
	}
	return streams
}

// streamDigest identifies a slot's operation stream, so that a test can show
// that the same seed gives the same inputs.
func streamDigest(ops []op) uint64 {
	h := fnv.New64a()
	for _, o := range ops {
		fmt.Fprintf(h, "%d|%t|%s|%s|%v\n", o.kind, o.onReplica, o.reactor, o.proc, o.args)
	}
	return h.Sum64()
}
