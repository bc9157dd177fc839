package engine

import (
	"slices"
	"sort"

	"reactdb/internal/wal"
)

// resolver is the one place a two-phase-commit outcome is decided: recovery
// and the replica feed it the same records and install what it emits.
//
// Inputs, per shard (container): records in log order (feed), the LSN the
// feed has passed (fedThrough), and the checkpoint floor at or below which
// records are covered by a snapshot (setFloors). Floors change only in whole
// checkpoint rounds, so a 2PC group is entirely at or below them or entirely
// above.
//
// The commit rule is parallel commit's: a group commits iff its decision and
// the prepare of every participant the decision names (its writers) have been
// fed. The coordinator forces all of them in one round, so they reach their
// logs in any order; a named prepare not fed yet is in flight, never absent.
// A group aborts only when one of its prepares is retracted by a tombstone
// (the coordinator's prepare shares the decision's TID and batch, so its
// tombstone retracts both) or, at recovery, from close.
//
// Outputs: records to install (ready, apply) and — only from close, which
// recovery calls once every log is fed — the prepares presumed aborted. A
// tailing replica never closes: an incomplete group waits for its missing
// prepares or for a tombstone. A replica feeds only what its mirror durably
// holds (see feedable), so closing it at promotion recovers exactly what a
// restart over the mirror would.
//
// A commit never jumps anything queued ahead of it on its shard, so a commit
// that read a 2PC participant's write never installs before that prepare
// resolves. A settled group installs on all its participants in one apply
// round, together with everything queued ahead of each of its prepares.
// Installs are newest-TID-wins, so a round converges in any order, and a
// reader committing between rounds sees a consistent committed prefix.
// Retraction is LSN-ordered, as in wal.Log.Replay: an abort voids its shard's
// records with its TID fed so far.
type resolver struct {
	shards []resolverShard
	groups map[uint64]*group // 2PC groups by global id, until resolved
	out    []resolvedRecord
	cut    []int // ready's scratch: per shard, how much of the queue installs now
	// maxGid is the highest global id fed or covered by an installed
	// checkpoint: recovery moves the transaction id sequence past it.
	maxGid uint64
}

type resolverShard struct {
	queue []wal.Record // commits and prepares waiting to install, ascending LSN
	fed   uint64       // every record at or below has been fed or is covered
	floor uint64       // checkpoint floor
}

type resolvedRecord struct {
	shard int
	rec   wal.Record
}

// group is one 2PC transaction: where its prepares sit and, once its decision
// has been fed, the decision itself.
type group struct {
	prep    []uint64 // per shard: the LSN of this group's prepare, 0 if none fed
	parts   []uint64 // the participants the decision names
	decided bool
	aborted bool // one of its prepares was retracted
}

func newResolver(shards int) *resolver {
	return &resolver{
		shards: make([]resolverShard, shards),
		groups: make(map[uint64]*group),
		cut:    make([]int, shards),
	}
}

func (r *resolver) group(gid uint64) *group {
	g := r.groups[gid]
	if g == nil {
		g = &group{prep: make([]uint64, len(r.shards))}
		r.groups[gid] = g
	}
	return g
}

// feed takes shard s's next record.
func (r *resolver) feed(s int, rec *wal.Record) {
	sh := &r.shards[s]
	r.maxGid = max(r.maxGid, rec.GlobalID)
	switch {
	case rec.Kind == wal.KindAbort:
		sh.queue = slices.DeleteFunc(sh.queue, func(q wal.Record) bool {
			if q.TID != rec.TID {
				return false
			}
			if q.Kind == wal.KindPrepare {
				r.groups[q.GlobalID].aborted = true
			}
			return true
		})
		r.out = slices.DeleteFunc(r.out, func(o resolvedRecord) bool { return o.shard == s && o.rec.TID == rec.TID })
	case rec.Kind == wal.KindDecision:
		// Registered even at or below the floor: a decision whose prepare sits
		// above another shard's floor still decides it.
		if g := r.group(rec.GlobalID); !g.decided {
			g.decided, g.parts = true, rec.Participants
		}
	case rec.Kind == wal.KindPrepare:
		// A covered prepare never installs, but it has been fed: a decision
		// naming it may be fed now (feedable).
		r.group(rec.GlobalID).prep[s] = rec.LSN
		if rec.LSN > sh.floor {
			sh.queue = append(sh.queue, *rec)
		}
	case rec.LSN <= sh.floor:
		// a commit covered by the checkpoint
	case len(sh.queue) == 0:
		r.out = append(r.out, resolvedRecord{s, *rec})
	default:
		sh.queue = append(sh.queue, *rec)
	}
}

// fedThrough records that shard s's feed has passed lsn.
func (r *resolver) fedThrough(s int, lsn uint64) {
	r.shards[s].fed = max(r.shards[s].fed, lsn)
}

// setFloors raises the shards' checkpoint floors to one checkpoint round's
// low-water marks (a zero leaves a shard's floor as it is): queued records
// the round covers are dropped.
func (r *resolver) setFloors(floors []uint64) {
	for s, f := range floors {
		if sh := &r.shards[s]; f > sh.floor {
			sh.floor, sh.fed = f, max(sh.fed, f)
			sh.queue = slices.DeleteFunc(sh.queue, func(q wal.Record) bool { return q.LSN <= f })
		}
	}
}

// feedable returns how many of shard s's next records, held back by a
// replica until its mirror holds them, may be mirrored and then fed. It stops
// at a decision naming another participant whose prepare has not been fed:
// mirrored before that prepare, a decision could survive a mirror crash with
// later commits that read the group's writes, while recovery, missing the
// prepare, aborts the group under them. A decision a checkpoint round covers
// needs no wait, nor does one whose group was retracted — by a fed tombstone,
// or by the coordinator's own further down recs (its prepare shares the
// decision's TID) — since a retracted group installs nowhere.
func (r *resolver) feedable(s int, recs []wal.ShippedRecord) int {
	for n := range recs {
		dec := &recs[n].Record
		if dec.Kind != wal.KindDecision || dec.LSN <= r.shards[s].floor {
			continue
		}
		g := r.groups[dec.GlobalID]
		retracted := func(l wal.ShippedRecord) bool { return l.Kind == wal.KindAbort && l.TID == dec.TID }
		for _, p := range dec.Participants {
			if p < uint64(len(r.shards)) && int(p) != s && (g == nil || g.prep[p] == 0 && !g.aborted) &&
				!slices.ContainsFunc(recs[n+1:], retracted) {
				return n
			}
		}
	}
	return len(recs)
}

// settled reports whether g's outcome is known: decided, and either retracted
// or complete — every named participant's prepare fed.
func (r *resolver) settled(g *group) bool {
	if !g.decided || g.aborted {
		return g.decided
	}
	for _, p := range g.parts {
		if p < uint64(len(r.shards)) && g.prep[p] == 0 {
			return false
		}
	}
	return true
}

// ready settles the queues and reports whether there is anything to apply.
// Settling finds, per shard, the longest queue prefix that may install now:
// it ends at the first prepare whose group is not settled, or whose
// prepare on another shard lies beyond that shard's prefix — cut until no
// group straddles a cut.
func (r *resolver) ready() bool {
	for s := range r.shards {
		r.cut[s] = len(r.shards[s].queue)
	}
	for changed := true; changed; {
		changed = false
		for s := range r.shards {
			q := r.shards[s].queue
			for i := 0; i < r.cut[s]; i++ {
				if g := r.groups[q[i].GlobalID]; q[i].Kind == wal.KindPrepare && (!r.settled(g) || r.straddles(g)) {
					r.cut[s], changed = i, true
					break
				}
			}
		}
	}
	for s := range r.shards {
		sh := &r.shards[s]
		for i := range sh.queue[:r.cut[s]] {
			rec := &sh.queue[i]
			if rec.Kind == wal.KindCommit || !r.groups[rec.GlobalID].aborted {
				r.out = append(r.out, resolvedRecord{s, *rec})
			}
		}
		sh.queue = slices.Delete(sh.queue, 0, r.cut[s])
		r.cut[s] = 0
	}
	// With every cut at zero, straddles means "still queued". A group with
	// nothing queued is done: decided, its prepares installed, retracted or
	// covered; undecided — presumed aborted, retracted or covered — its
	// decision, if one is ever fed, has nothing left to decide.
	for gid, g := range r.groups {
		if !r.straddles(g) {
			delete(r.groups, gid)
		}
	}
	return len(r.out) > 0
}

// straddles reports whether one of g's queued prepares lies beyond its
// shard's cut (queues ascend by LSN, so a prepare is found by its LSN).
func (r *resolver) straddles(g *group) bool {
	for p, lsn := range g.prep {
		q := r.shards[p].queue
		i := sort.Search(len(q), func(i int) bool { return q[i].LSN >= lsn })
		if lsn > 0 && i < len(q) && q[i].LSN == lsn && i >= r.cut[p] {
			return true
		}
	}
	return false
}

// apply hands every settled record to install, in order, and returns how
// many there were.
func (r *resolver) apply(install func(s int, rec *wal.Record)) int {
	n := len(r.out)
	for i := range r.out {
		install(r.out[i].shard, &r.out[i].rec)
	}
	clear(r.out)
	r.out = r.out[:0]
	return n
}

// close ends the feed: every queued prepare whose group is not settled —
// undecided, or decided with a named prepare that never arrived — is
// presumed aborted (reported through abort and dropped), so the next ready
// settles everything else.
func (r *resolver) close(abort func(s int, tid uint64)) {
	for s := range r.shards {
		sh := &r.shards[s]
		sh.queue = slices.DeleteFunc(sh.queue, func(q wal.Record) bool {
			if q.Kind == wal.KindPrepare && !r.settled(r.groups[q.GlobalID]) {
				abort(s, q.TID)
				return true
			}
			return false
		})
	}
}

// applied is shard s's applied watermark once the settled records are
// installed: its state reflects every record at or below it.
func (r *resolver) applied(s int) uint64 {
	sh := &r.shards[s]
	if len(sh.queue) > 0 {
		return sh.queue[0].LSN - 1
	}
	return max(sh.fed, sh.floor)
}
