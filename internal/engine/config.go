package engine

import (
	"fmt"
	"hash/fnv"
	"time"

	"reactdb/internal/vclock"
	"reactdb/internal/wal"
)

// Strategy names the deployment strategies of §3.3. The strategy value is
// informational (experiments report it); the actual behaviour is fully
// determined by the other Config fields, which the constructors below set.
type Strategy string

// Deployment strategies evaluated in the paper.
const (
	// SharedEverythingWithoutAffinity (S1): a single container in which any
	// executor can handle transactions for any reactor; a round-robin router
	// load-balances root transactions across executors.
	SharedEverythingWithoutAffinity Strategy = "shared-everything-without-affinity"
	// SharedEverythingWithAffinity (S2): a single container with an
	// affinity-based router so that root transactions for a given reactor are
	// always processed by the same executor.
	SharedEverythingWithAffinity Strategy = "shared-everything-with-affinity"
	// SharedNothing (S3): as many containers as executors; each reactor is
	// mapped to exactly one executor. Whether the deployment behaves as
	// shared-nothing-sync or shared-nothing-async depends on how the
	// application program synchronizes on futures, not on the configuration.
	SharedNothing Strategy = "shared-nothing"
)

// RouterKind selects the transaction routing policy within a container.
type RouterKind string

// Router kinds.
const (
	RouterRoundRobin RouterKind = "round-robin"
	RouterAffinity   RouterKind = "affinity"
)

// AdmissionPolicy decides what happens to a root transaction arriving at an
// executor whose request queue is full.
type AdmissionPolicy string

// Admission policies.
const (
	// AdmissionBlock (the default) blocks the caller until queue space frees
	// up: backpressure propagates to clients.
	AdmissionBlock AdmissionPolicy = "block"
	// AdmissionFail rejects the request immediately with ErrOverloaded so
	// callers can shed load or retry elsewhere.
	AdmissionFail AdmissionPolicy = "fail-fast"
)

// GroupCommitConfig shapes each container's commit queue. Every commit that
// writes enters the queue, whatever the configuration: the first to find no
// batch held or flushing leads, takes up to MaxBatch entries and runs the
// commit pipeline (Container.commitBatch) over them, so under DurabilityWAL
// one WAL append and one fsync cover the batch; what arrives during a flush
// gets the next leader. Window is that leader's hold: it keeps the batch open
// until its first entry has waited Window or MaxBatch entries wait. Enabled
// false means no hold (Validate sets Window to 0); with no hold and no log a
// batch shares nothing, so every writer leads its own flush. The prepare and
// decision records of two-phase commits ride the same batches. Read-only
// commits bypass the queue and never wait out a Window.
type GroupCommitConfig struct {
	Enabled  bool
	MaxBatch int           // most entries one flush takes; a full batch ends the hold (default 32)
	Window   time.Duration // the leader's hold (default 200µs; 0 when not Enabled)
}

// DurabilityMode selects how a commit becomes durable before it is
// acknowledged.
type DurabilityMode string

// Durability modes.
const (
	// DurabilityModeled (the default) keeps no log: a commit is acknowledged
	// once installed in memory, and nothing is recoverable. The paper's
	// figures run this way, on the modeled virtual-core costs.
	DurabilityModeled DurabilityMode = "modeled"
	// DurabilityWAL appends every committed transaction's write set to the
	// owning container's write-ahead log and fsyncs before the commit is
	// acknowledged. Group commit amortizes the fsync across a batch.
	// Database.Recover replays the log after a restart or crash.
	DurabilityWAL DurabilityMode = "wal"
)

// DurabilityConfig selects and parameterizes the durability implementation.
type DurabilityConfig struct {
	// Mode is the durability mode (default DurabilityModeled).
	Mode DurabilityMode
	// Storage is the segment store under DurabilityWAL: wal.NewFileStorage
	// writes real files and fsyncs (one subdirectory per container). Nil
	// means a fresh wal.MemStorage, durable only for the lifetime of that
	// object; recovery tests pass their own so the log outlives the Database
	// instance.
	Storage wal.Storage
	// SegmentSize is the WAL segment rotation threshold in bytes
	// (default wal.DefaultSegmentSize).
	SegmentSize int
}

// Config describes a ReactDB deployment: how many containers and executors to
// create, how reactors map to containers and executors, the routing policy,
// and the virtual-core cost parameters. Editing the configuration and
// restarting the database changes the architecture without any change to
// application code.
type Config struct {
	// Strategy is the deployment strategy this configuration realizes.
	Strategy Strategy

	// Containers is the number of database containers (isolated storage +
	// concurrency control domains).
	Containers int

	// ExecutorsPerContainer is the number of transaction executors (virtual
	// cores) in each container.
	ExecutorsPerContainer int

	// Router selects how a container routes incoming root transactions to its
	// executors.
	Router RouterKind

	// QueueDepth bounds the number of root transactions in flight on each
	// executor (default 256): an admission token is taken when a root is
	// admitted, held across cooperative yields, and released only at
	// completion, abort, or panic, so the bound covers waiting AND started
	// work — a true memory and tail-latency bound, not just a cap on the
	// waiting queue. Sub-transaction requests bypass it: rejecting them
	// mid-transaction could deadlock or abort work the system already
	// admitted. The bound is fixed for the life of the database.
	QueueDepth int

	// Admission selects the backpressure behaviour when an executor queue is
	// full: block the caller (AdmissionBlock, the default) or fail fast with
	// ErrOverloaded (AdmissionFail).
	Admission AdmissionPolicy

	// GroupCommit shapes the commit queue's batches (no hold by default).
	GroupCommit GroupCommitConfig

	// Durability selects how commits become durable: not at all (the
	// default, DurabilityModeled) or on a real per-container write-ahead log
	// with group fsync (see Database.Recover).
	Durability DurabilityConfig

	// Placement maps a reactor name to the index of the container hosting it.
	// The result is clamped into [0, Containers). If nil, reactors are
	// hash-partitioned across containers.
	Placement func(reactor string) int

	// Affinity maps a reactor name to the index of its preferred executor
	// within its container, used by the affinity router. The result is
	// clamped into [0, ExecutorsPerContainer). If nil, a hash of the reactor
	// name is used.
	Affinity func(reactor string) int

	// Costs are the virtual-core cost parameters (communication, affinity
	// miss, per-transaction processing). The zero value disables all modeled
	// costs, leaving only the real cost of executing Go code.
	Costs vclock.Costs

	// DisableCC disables the commit protocol (validation, locking, TID
	// generation). It exists only to measure containerization overhead with
	// empty transactions, as in Appendix F.3, and must not be used with
	// workloads that write data.
	DisableCC bool
}

// Validate checks the configuration and applies defaults for zero fields.
func (c *Config) Validate() error {
	if c.Containers <= 0 {
		c.Containers = 1
	}
	if c.ExecutorsPerContainer <= 0 {
		c.ExecutorsPerContainer = 1
	}
	if c.Router == "" {
		c.Router = RouterAffinity
	}
	if c.Router != RouterRoundRobin && c.Router != RouterAffinity {
		return fmt.Errorf("engine: unknown router kind %q", c.Router)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Admission == "" {
		c.Admission = AdmissionBlock
	}
	if c.Admission != AdmissionBlock && c.Admission != AdmissionFail {
		return fmt.Errorf("engine: unknown admission policy %q", c.Admission)
	}
	if !c.GroupCommit.Enabled {
		c.GroupCommit.Window = 0
	} else if c.GroupCommit.Window <= 0 {
		c.GroupCommit.Window = 200 * time.Microsecond
	}
	if c.GroupCommit.MaxBatch <= 0 {
		c.GroupCommit.MaxBatch = 32
	}
	if c.Durability.Mode == "" {
		c.Durability.Mode = DurabilityModeled
	}
	if c.Durability.Mode != DurabilityModeled && c.Durability.Mode != DurabilityWAL {
		return fmt.Errorf("engine: unknown durability mode %q", c.Durability.Mode)
	}
	if c.Durability.Mode == DurabilityWAL {
		if c.Durability.Storage == nil {
			c.Durability.Storage = wal.NewMemStorage()
		}
		if c.Durability.SegmentSize <= 0 {
			c.Durability.SegmentSize = wal.DefaultSegmentSize
		}
	}
	if c.Strategy == "" {
		c.Strategy = Strategy(fmt.Sprintf("custom-%dx%d-%s", c.Containers, c.ExecutorsPerContainer, c.Router))
	}
	return nil
}

// hashString gives a stable non-negative hash for placement defaults.
func hashString(s string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(s))
	return int(h.Sum32() & 0x7fffffff)
}

// placementFor resolves the container index for a reactor.
func (c *Config) placementFor(reactor string) int {
	idx := 0
	if c.Placement != nil {
		idx = c.Placement(reactor)
	} else {
		idx = hashString(reactor)
	}
	idx %= c.Containers
	if idx < 0 {
		idx += c.Containers
	}
	return idx
}

// affinityFor resolves the preferred executor index for a reactor.
func (c *Config) affinityFor(reactor string) int {
	idx := 0
	if c.Affinity != nil {
		idx = c.Affinity(reactor)
	} else {
		idx = hashString(reactor)
	}
	idx %= c.ExecutorsPerContainer
	if idx < 0 {
		idx += c.ExecutorsPerContainer
	}
	return idx
}

// NewSharedEverythingWithoutAffinity returns the S1 deployment with the given
// number of transaction executors in a single container.
func NewSharedEverythingWithoutAffinity(executors int) Config {
	return Config{
		Strategy:              SharedEverythingWithoutAffinity,
		Containers:            1,
		ExecutorsPerContainer: executors,
		Router:                RouterRoundRobin,
	}
}

// NewSharedEverythingWithAffinity returns the S2 deployment with the given
// number of transaction executors in a single container.
func NewSharedEverythingWithAffinity(executors int) Config {
	return Config{
		Strategy:              SharedEverythingWithAffinity,
		Containers:            1,
		ExecutorsPerContainer: executors,
		Router:                RouterAffinity,
	}
}

// NewSharedNothing returns the S3 deployment with the given number of
// containers, one executor each.
func NewSharedNothing(containers int) Config {
	return Config{
		Strategy:              SharedNothing,
		Containers:            containers,
		ExecutorsPerContainer: 1,
		Router:                RouterAffinity,
	}
}
