// Package reactdb is the public API of ReactDB-Go, a reproduction of
// "Reactors: A Case for Predictable, Virtualized Actor Database Systems"
// (Shah & Vaz Salles, SIGMOD 2018).
//
// Applications are written once against the reactor programming model —
// reactor types encapsulating relations and procedures, asynchronous
// cross-reactor calls returning futures, serializable transactions — and the
// database architecture (shared-everything with or without affinity,
// shared-nothing) is chosen at deployment time through a Config, without any
// change to application code.
//
// A minimal application looks like this:
//
//	account := reactdb.NewReactorType("Account").
//		AddRelation(reactdb.MustSchema("balance",
//			[]reactdb.Column{{Name: "id", Type: reactdb.Int64}, {Name: "amount", Type: reactdb.Float64}}, "id")).
//		AddProcedure("deposit", func(ctx reactdb.Context, args reactdb.Args) (any, error) {
//			row, err := ctx.Get("balance", int64(0))
//			if err != nil {
//				return nil, err
//			}
//			return nil, ctx.Update("balance", reactdb.Row{int64(0), row.Float64(1) + args.Float64(0)})
//		})
//
//	def := reactdb.NewDatabaseDef().MustAddType(account)
//	def.MustDeclareReactors("Account", "alice", "bob")
//	db := reactdb.MustOpen(def, reactdb.SharedNothing(2))
//	defer db.Close()
//
// See the examples directory for complete programs and README.md
// ("Architecture") for the mapping between the paper and the implementation.
package reactdb

import (
	"reactdb/internal/core"
	"reactdb/internal/engine"
	"reactdb/internal/rel"
	"reactdb/internal/server"
	"reactdb/internal/vclock"
)

// Re-exported programming-model types (paper §2).
type (
	// ReactorType declares the relations and procedures of a reactor type.
	ReactorType = core.Type
	// DatabaseDef is the logical declaration of a reactor database.
	DatabaseDef = core.DatabaseDef
	// Context is the execution interface procedures receive.
	Context = core.Context
	// Procedure is application logic invoked on a reactor.
	Procedure = core.Procedure
	// Args carries procedure arguments.
	Args = core.Args
	// Future is the promise returned by asynchronous cross-reactor calls.
	Future = core.Future
)

// Re-exported relational types.
type (
	// Schema describes one relation.
	Schema = rel.Schema
	// Column is one attribute of a relation.
	Column = rel.Column
	// ColType enumerates column types.
	ColType = rel.ColType
	// Row is a tuple.
	Row = rel.Row
	// RowView is a lazy, allocation-free reader over a stored row; see
	// Context.GetView.
	RowView = rel.RowView
)

// Re-exported declarative-query types. A Query is built fluently, then run
// either ad hoc through Database.Query (its own serializable read
// transaction) or inside a procedure through Context.Query (the procedure's
// transaction):
//
//	res, err := db.Query(reactdb.NewQuery().
//		From("a", "account", "alice", "bob").
//		Where("a", "branch", reactdb.Eq, "north").
//		Sum("a.amount", "total"))
type (
	// Query is a declarative read-only query over one or more reactors.
	Query = rel.Query
	// QueryResult is the materialized output of a query.
	QueryResult = rel.Result
	// CmpOp is a comparison operator for Query.Where.
	CmpOp = rel.CmpOp
)

// Comparison operators for Query.Where.
const (
	Eq = rel.Eq
	Ne = rel.Ne
	Lt = rel.Lt
	Le = rel.Le
	Gt = rel.Gt
	Ge = rel.Ge
)

// NewQuery starts a declarative query. Chain From/Where/Join/GroupBy/
// aggregate/Select/OrderBy/Limit calls, then pass it to Database.Query or
// Context.Query. Builder errors accumulate and surface at execution.
func NewQuery() *Query { return rel.NewQuery() }

// Re-exported runtime types (paper §3).
type (
	// Database is a running ReactDB instance.
	Database = engine.Database
	// Config describes a deployment (containers, executors, routing, costs).
	Config = engine.Config
	// Strategy names a deployment strategy.
	Strategy = engine.Strategy
	// Costs are the virtual-core cost parameters.
	Costs = vclock.Costs
	// Profile is the per-transaction latency breakdown.
	Profile = engine.Profile
	// AdmissionPolicy selects blocking or fail-fast admission control.
	AdmissionPolicy = engine.AdmissionPolicy
	// StealConfig configures work stealing between a container's executors.
	StealConfig = engine.StealConfig
	// AdaptiveDepthConfig configures the adaptive admission controller that
	// moves each executor's effective queue depth under overload.
	AdaptiveDepthConfig = engine.AdaptiveDepthConfig
	// GroupCommitConfig configures container-level batched group commit.
	GroupCommitConfig = engine.GroupCommitConfig
	// DurabilityConfig selects and parameterizes the durability path.
	DurabilityConfig = engine.DurabilityConfig
	// DurabilityMode selects how commits become durable before acknowledgement.
	DurabilityMode = engine.DurabilityMode
	// QueueStats is a snapshot of one executor's request-queue activity.
	QueueStats = engine.QueueStats
	// GroupCommitStats is a snapshot of one container's group-commit activity.
	GroupCommitStats = engine.GroupCommitStats
	// WALStats is a snapshot of one container's write-ahead log activity.
	WALStats = engine.WALStats
	// CheckpointStats is a snapshot of one container's checkpoint activity.
	CheckpointStats = engine.CheckpointStats
)

// Re-exported replication types: a Replica bootstraps from the primary's
// newest checkpoint, tails its WAL segments, and serves snapshot-consistent
// read-only transactions and queries (see OpenReplica).
type (
	// Replica is a read-only follower of a primary Database.
	Replica = engine.Replica
	// ReplicaOptions configures OpenReplica.
	ReplicaOptions = engine.ReplicaOptions
	// AckMode selects when the primary acknowledges commits relative to
	// replication progress.
	AckMode = engine.AckMode
	// ReplicaStats is a snapshot of a replica's shipping and apply progress.
	ReplicaStats = engine.ReplicaStats
)

// Replication acknowledgment modes.
const (
	// AckAsync acknowledges commits after the primary's local fsync.
	AckAsync = engine.AckAsync
	// AckSemiSync withholds commit acknowledgments until every attached
	// semi-sync replica has durably mirrored the commit's log records.
	AckSemiSync = engine.AckSemiSync
)

// OpenReplica attaches a read-only replica to a primary running under
// DurabilityWAL. The replica bootstraps from the newest checkpoint blob,
// tails the primary's live WAL segments, and applies them — base relations
// and secondary indexes — at a snapshot watermark its Query and Execute
// methods read from.
func OpenReplica(primary *Database, opts ReplicaOptions) (*Replica, error) {
	return engine.OpenReplica(primary, opts)
}

// Re-exported network front-end types: a NodeServer exposes a primary or
// replica on the wire protocol (length-prefixed CRC-framed binary frames with
// piggybacked load hints), a Client is one pipelined connection to it, and a
// Router fans a client's traffic across a primary and its replicas.
type (
	// NodeServer serves one engine node over the wire protocol.
	NodeServer = server.Server
	// ServerOptions tune a NodeServer (pipelining window, hint refresh).
	ServerOptions = server.Options
	// Client is one pipelined client connection to a NodeServer.
	Client = server.Conn
	// Router is a lag- and load-aware client-side request router.
	Router = server.Router
	// RouterOptions tune a Router (policy, freshness bound, retries).
	RouterOptions = server.RouterOptions
	// RoutingPolicy selects round-robin or hint-aware routing.
	RoutingPolicy = server.Policy
	// LoadHints is the load signal piggybacked on every server response.
	LoadHints = server.LoadHints
)

// Routing policies and the stale-read error.
const (
	// PolicyRoundRobin rotates reads blindly over every endpoint.
	PolicyRoundRobin = server.PolicyRoundRobin
	// PolicyAware steers by piggybacked queue and lag hints.
	PolicyAware = server.PolicyAware
)

// ErrStale reports a read whose freshness bound the serving replica could not
// meet; the Router retries it on the primary.
var ErrStale = server.ErrStale

// ServePrimary exposes a primary database on the wire protocol.
func ServePrimary(db *Database, opts ServerOptions) *NodeServer {
	return server.NewPrimary(db, opts)
}

// ServeReplica exposes a read-only replica on the wire protocol.
func ServeReplica(rep *Replica, opts ServerOptions) *NodeServer {
	return server.NewReplica(rep, opts)
}

// DialNode connects to a NodeServer.
func DialNode(addr string) (*Client, error) { return server.Dial(addr) }

// NewRouter dials a set of NodeServer endpoints (exactly one primary) and
// routes writes to the primary and reads across replicas per the policy.
func NewRouter(endpoints []string, opts RouterOptions) (*Router, error) {
	return server.NewRouter(endpoints, opts)
}

// Column types.
const (
	Int64   = rel.Int64
	Float64 = rel.Float64
	String  = rel.String
	Bool    = rel.Bool
	Bytes   = rel.Bytes
)

// Admission policies and durability modes.
const (
	// AdmissionBlock blocks callers while the target queue is full.
	AdmissionBlock = engine.AdmissionBlock
	// AdmissionFail rejects requests with ErrOverloaded while the target
	// queue is full.
	AdmissionFail = engine.AdmissionFail
	// DurabilityModeled charges the modeled log-write cost instead of doing
	// real IO (the default; an ablation — nothing is recoverable).
	DurabilityModeled = engine.DurabilityModeled
	// DurabilityWAL makes every acknowledged commit durable on a real
	// per-container write-ahead log; Database.Recover replays it.
	DurabilityWAL = engine.DurabilityWAL
)

// Errors.
var (
	// ErrConflict reports a serialization conflict abort; clients may retry.
	ErrConflict = engine.ErrConflict
	// ErrOverloaded reports a root transaction rejected by fail-fast
	// admission control because the target executor's queue was full.
	ErrOverloaded = engine.ErrOverloaded
	// ErrUserAbort reports an application-level abort (see Abortf).
	ErrUserAbort = core.ErrUserAbort
	// ErrDangerousStructure reports a violation of the intra-transaction
	// safety condition (§2.2.4).
	ErrDangerousStructure = core.ErrDangerousStructure
	// ErrReplicaRead reports a write attempted on a read-only replica.
	ErrReplicaRead = engine.ErrReplicaRead
)

// NewReactorType creates an empty reactor type.
func NewReactorType(name string) *ReactorType { return core.NewType(name) }

// NewDatabaseDef creates an empty database declaration.
func NewDatabaseDef() *DatabaseDef { return core.NewDatabaseDef() }

// NewSchema builds a relation schema.
func NewSchema(name string, columns []Column, keyCols ...string) (*Schema, error) {
	return rel.NewSchema(name, columns, keyCols...)
}

// MustSchema is NewSchema that panics on error, for static declarations.
func MustSchema(name string, columns []Column, keyCols ...string) *Schema {
	return rel.MustSchema(name, columns, keyCols...)
}

// Abortf builds an application-level abort error; returning it from a
// procedure rolls back the root transaction.
func Abortf(format string, args ...any) error { return core.Abortf(format, args...) }

// IsUserAbort reports whether err is an application-level abort.
func IsUserAbort(err error) bool { return core.IsUserAbort(err) }

// WaitAll waits for a set of futures and returns the first error.
func WaitAll(futures ...*Future) error { return core.WaitAll(futures...) }

// Open deploys a reactor database under the given configuration.
func Open(def *DatabaseDef, cfg Config) (*Database, error) { return engine.Open(def, cfg) }

// MustOpen is Open that panics on error.
func MustOpen(def *DatabaseDef, cfg Config) *Database { return engine.MustOpen(def, cfg) }

// SharedEverythingWithoutAffinity returns the S1 deployment of §3.3.
func SharedEverythingWithoutAffinity(executors int) Config {
	return engine.NewSharedEverythingWithoutAffinity(executors)
}

// SharedEverythingWithAffinity returns the S2 deployment of §3.3.
func SharedEverythingWithAffinity(executors int) Config {
	return engine.NewSharedEverythingWithAffinity(executors)
}

// SharedNothing returns the S3 deployment of §3.3.
func SharedNothing(containers int) Config { return engine.NewSharedNothing(containers) }

// DefaultExperimentCosts returns the virtual-core cost parameters used by the
// experiment drivers (the modeled profile of README "Benchmarks").
func DefaultExperimentCosts() Costs { return vclock.DefaultExperimentCosts() }

// DefaultAffinity returns the executor index the hash-defaulted affinity
// assigns to a reactor (the mapping used when Config.Affinity is nil), for
// building skew-aware workloads.
func DefaultAffinity(reactor string, executors int) int {
	return engine.DefaultAffinity(reactor, executors)
}
