// Package wal implements ReactDB's write-ahead log: an append-only,
// segmented log of transaction commit records with CRC-framed encoding,
// monotonic LSN assignment, group-fsync batching, and replay iteration for
// recovery.
//
// Each database container owns one Log, and so does each shard of a replica:
// its mirror is a Log fed with the primary's frames (ship.go). The leader of
// an engine container's commit queue appends a batch's commit records — and
// the two-phase commit records riding with them — and fsyncs once per flush
// before any waiter is acknowledged, so the durable-write cost amortizes over
// the batch.
//
// Segments are persisted through a Storage implementation. MemStorage keeps
// segments in process memory with honest fsync semantics (bytes written but
// not synced are lost on a simulated crash), which is what the
// crash-consistency tests use; FileStorage writes real files and real fsyncs.
package wal
