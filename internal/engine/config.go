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

// StealConfig enables work stealing between the executors of a container:
// an executor whose run loop finds its own queue empty — or at least Ratio
// times shallower than the deepest sibling's — takes non-affine root tasks
// from the tail of that sibling's queue instead of idling next to a backlog.
//
// Only root tasks that are not pinned are ever stolen: when the deployment
// routes with the affinity router AND supplies an explicit Config.Affinity
// function, that mapping is treated as an application placement contract and
// its tasks never migrate. Hash-defaulted affinity and round-robin routing
// are load-spreading heuristics, so their tasks are fair game — each steal
// moves the reactor's working set, which the Costs.AffinityMiss model charges
// on the thief exactly as it charges any other routing miss, keeping the
// steal-on/steal-off ablation honest. Sub-transaction requests are never
// stolen.
type StealConfig struct {
	Enabled bool
	// Ratio is the imbalance trigger for a non-idle executor: it steals only
	// from a sibling whose queue is at least Ratio times deeper than its own
	// (default 2). An idle executor steals from any sibling at or above
	// MinVictimDepth.
	Ratio int
	// MinVictimDepth is the smallest sibling backlog worth raiding (default
	// 2): a single waiting request behind a busy executor is about to run
	// there anyway, and moving it would only pay the affinity miss.
	MinVictimDepth int
}

// AdaptiveDepthConfig enables the admission controller that moves each
// executor's effective queue depth (its in-flight token limit) between Floor
// and Ceiling in response to measured queue wait: when the windowed p99 of
// scheduling delay exceeds TargetP99 the depth halves (admitted requests wait
// less because fewer are admitted; the excess blocks or sheds at admission),
// and when p99 falls below half the target the depth creeps back up. With a
// static bound, overload pushes queue-wait p99 toward QueueDepth × service
// time; the controller trades that unbounded tail for backpressure at the
// admission gate.
type AdaptiveDepthConfig struct {
	Enabled bool
	// TargetP99 is the queue-wait p99 the controller holds admitted requests
	// under (default 2ms).
	TargetP99 time.Duration
	// Floor and Ceiling bound the effective depth (defaults 2 and
	// Config.QueueDepth).
	Floor   int
	Ceiling int
	// Interval is the control loop period; each tick reads and resets one
	// measurement window per executor (default 5ms).
	Interval time.Duration
}

// GroupCommitConfig enables batched group commit on each container: OCC
// transactions that validated successfully (Prepare) accumulate in a batch
// and are committed together when the batch reaches MaxBatch transactions or
// Window elapses, whichever comes first. The modeled log-write cost
// (Costs.LogWrite) is charged once per batch instead of once per transaction.
// The prepare and decision records of two-phase commits ride the same
// batches. Disabled, every commit runs the same pipeline
// (Container.commitBatch) inline as a batch of one.
type GroupCommitConfig struct {
	Enabled  bool
	MaxBatch int           // flush when this many transactions accumulated (default 32)
	Window   time.Duration // flush at least this often (default 200µs)
}

// DurabilityMode selects how a commit becomes durable before it is
// acknowledged.
type DurabilityMode string

// Durability modes.
const (
	// DurabilityModeled (the default) charges the modeled log-write cost
	// (Costs.LogWrite) as virtual-core work instead of doing real IO — the
	// original cost-model ablation. Nothing is recoverable.
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
	// Dir, when set under DurabilityWAL, stores WAL segments as files under
	// this directory (one subdirectory per container). Empty means in-memory
	// segments, durable only for the lifetime of the Storage object.
	Dir string
	// Storage overrides Dir with an explicit segment store. Recovery tests
	// pass a wal.MemStorage here so the log outlives the Database instance.
	Storage wal.Storage
	// SegmentSize is the WAL segment rotation threshold in bytes
	// (default wal.DefaultSegmentSize).
	SegmentSize int
	// CheckpointInterval, when positive under DurabilityWAL, runs a
	// background checkpointer: every interval it snapshots each container's
	// committed catalog state into a durable checkpoint and truncates log
	// segments wholly below the checkpoint's low-water mark, bounding both
	// log size and recovery time. Zero disables the background checkpointer;
	// Database.Checkpoint still works on demand.
	CheckpointInterval time.Duration
	// CheckpointBytes, when positive, makes the background checkpointer skip
	// a tick unless at least this many bytes were appended across all
	// container logs since the last checkpoint, so an idle database is not
	// re-snapshotted. Zero checkpoints on every tick.
	CheckpointBytes int
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
	// admitted. Under AdaptiveDepth the effective bound moves between the
	// configured floor and ceiling; QueueDepth is the static default.
	QueueDepth int

	// Admission selects the backpressure behaviour when an executor queue is
	// full: block the caller (AdmissionBlock, the default) or fail fast with
	// ErrOverloaded (AdmissionFail).
	Admission AdmissionPolicy

	// Steal configures work stealing between the executors of a container
	// (disabled by default).
	Steal StealConfig

	// AdaptiveDepth configures the adaptive admission controller that moves
	// the effective queue depth under overload (disabled by default: the
	// QueueDepth bound is static).
	AdaptiveDepth AdaptiveDepthConfig

	// GroupCommit configures batched group commit (disabled by default).
	GroupCommit GroupCommitConfig

	// Durability selects how commits become durable: the modeled log-write
	// cost (the default, an ablation) or a real per-container write-ahead
	// log with group fsync (see Database.Recover).
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

	// replica marks the inner database of a Replica: procedures run read-only
	// (Insert/Update/Delete fail with ErrReplicaRead) while the replica's
	// apply loop installs the primary's writes underneath. Unexported on
	// purpose — only OpenReplica sets it.
	replica bool
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
	if c.Steal.Enabled {
		if c.Steal.Ratio <= 0 {
			c.Steal.Ratio = 2
		}
		if c.Steal.MinVictimDepth <= 0 {
			c.Steal.MinVictimDepth = 2
		}
	}
	if c.AdaptiveDepth.Enabled {
		if c.AdaptiveDepth.TargetP99 <= 0 {
			c.AdaptiveDepth.TargetP99 = 2 * time.Millisecond
		}
		if c.AdaptiveDepth.Floor <= 0 {
			c.AdaptiveDepth.Floor = 2
		}
		if c.AdaptiveDepth.Ceiling <= 0 {
			c.AdaptiveDepth.Ceiling = c.QueueDepth
		}
		if c.AdaptiveDepth.Floor > c.AdaptiveDepth.Ceiling {
			return fmt.Errorf("engine: AdaptiveDepth.Floor %d exceeds Ceiling %d",
				c.AdaptiveDepth.Floor, c.AdaptiveDepth.Ceiling)
		}
		if c.AdaptiveDepth.Interval <= 0 {
			c.AdaptiveDepth.Interval = 5 * time.Millisecond
		}
	}
	if c.GroupCommit.Enabled {
		if c.GroupCommit.MaxBatch <= 0 {
			c.GroupCommit.MaxBatch = 32
		}
		if c.GroupCommit.Window <= 0 {
			c.GroupCommit.Window = 200 * time.Microsecond
		}
	}
	if c.Durability.Mode == "" {
		c.Durability.Mode = DurabilityModeled
	}
	if c.Durability.Mode != DurabilityModeled && c.Durability.Mode != DurabilityWAL {
		return fmt.Errorf("engine: unknown durability mode %q", c.Durability.Mode)
	}
	if c.Durability.Mode == DurabilityWAL {
		if c.Durability.Storage == nil {
			if c.Durability.Dir != "" {
				c.Durability.Storage = wal.NewFileStorage(c.Durability.Dir)
			} else {
				c.Durability.Storage = wal.NewMemStorage()
			}
		}
		if c.Durability.SegmentSize <= 0 {
			c.Durability.SegmentSize = wal.DefaultSegmentSize
		}
	}
	if c.Durability.Mode != DurabilityWAL && (c.Durability.CheckpointInterval > 0 || c.Durability.CheckpointBytes > 0) {
		return fmt.Errorf("engine: checkpointing requires Durability.Mode == DurabilityWAL")
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

// DefaultAffinity returns the executor index the hash-defaulted affinity
// assigns to a reactor in a container with the given number of executors —
// the mapping used when Config.Affinity is nil. Benchmarks and experiment
// drivers use it to construct deliberately skewed (or deliberately balanced)
// reactor layouts without supplying an explicit Affinity function, which
// would pin the tasks and disable work stealing.
func DefaultAffinity(reactor string, executors int) int {
	if executors <= 0 {
		return 0
	}
	return hashString(reactor) % executors
}

// pinnedAffinity reports whether root tasks are pinned to their routed
// executor: the affinity router with an application-supplied Affinity
// function is a placement contract work stealing must not break, while the
// hash default and round-robin routing are load-spreading heuristics whose
// tasks may be stolen.
func (c *Config) pinnedAffinity() bool {
	return c.Router == RouterAffinity && c.Affinity != nil
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
