package engine

import (
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"reactdb/internal/wal"
)

var resolveSeed = flag.Int64("resolveseed", -1, "run only this seed of TestResolverStreamingEqualsBatch")

const resolveSeeds = 256

// TestResolverStreamingEqualsBatch is the property both users of the resolver
// rest on. For a random multi-shard history — single-shard commits, 2PC
// rounds whose shares land in any order (the coordinator's prepare and
// decision glued in one write, the other writers' prepares before or after
// it), rounds that fail with whatever they appended retracted (some shares
// salvaged by the log itself), salvaged commits, checkpoint rounds cut where
// no round is in flight, and a round torn off at a crash — undecided, or
// decided with a named prepare that never arrived — two feeds must install
// the committed history and nothing else:
//
//   - streaming, as the replica does: raw records including aborts, shipped
//     a few at a time per shard in random order into a stage that feeds only
//     the prefix feedable allows (a decision waits for the prepares it
//     names), fed-through watermarks lagging at random, checkpoint rounds
//     taken (with or without skipping the covered records) at random, apply
//     rounds at random — never closed;
//   - batch, as recovery does: each log filtered the way wal.Log.Replay
//     filters it, fed whole behind the newest round's floors, then closed.
//
// Both must end equal to a reference fold of the committed records, and
// after every streaming apply round no committed group may be torn, no
// commit may be installed ahead of anything committed before it on its shard
// (nor a prepare ahead of a commit), and no record outside the committed
// history may have been installed. Close must presume exactly the torn
// round's prepares aborted. Across the seeds, some committed round must have
// its decision appended before one of its prepares, and some crash tail must
// be a decided round missing a named prepare.
func TestResolverStreamingEqualsBatch(t *testing.T) {
	if *resolveSeed >= 0 {
		resolveOneSeed(t, *resolveSeed)
		return
	}
	var early, tornDecided int
	for seed := int64(0); seed < resolveSeeds; seed++ {
		h := resolveOneSeed(t, seed)
		early += h.earlyDecisions
		if h.tornDecided {
			tornDecided++
		}
	}
	t.Logf("%d seeds: %d committed rounds decided before a prepare, %d decided crash tails", resolveSeeds, early, tornDecided)
	if early == 0 || tornDecided == 0 {
		t.Fatalf("the generator missed a case: %d decision-before-prepare rounds, %d decided crash tails", early, tornDecided)
	}
}

// resolveHistory is one generated history: per-shard logs (record i has LSN
// i+1), which records commit, and the checkpoint rounds.
type resolveHistory struct {
	logs      [][]wal.Record
	glued     [][]bool           // record i and i+1 become durable together
	committed map[[2]uint64]bool // (shard, LSN) of every committed record
	groups    [][][2]uint64      // committed groups' write participants (shard, LSN)
	rounds    [][]uint64
	torn      map[[2]uint64]bool // the crash tail: (shard, TID) of an incomplete round's prepares
	// earlyDecisions counts committed rounds whose decision was appended
	// before one of their prepares; tornDecided marks a crash tail that holds
	// its decision.
	earlyDecisions int
	tornDecided    bool
}

func genResolveHistory(rng *rand.Rand) *resolveHistory {
	n := 2 + rng.Intn(3)
	h := &resolveHistory{
		logs: make([][]wal.Record, n), glued: make([][]bool, n),
		committed: map[[2]uint64]bool{}, torn: map[[2]uint64]bool{},
	}
	var tid, gid uint64
	ends := func() []uint64 {
		e := make([]uint64, n)
		for s := range e {
			e[s] = uint64(len(h.logs[s]))
		}
		return e
	}
	add := func(s int, rec wal.Record, glue bool) uint64 {
		if glue {
			h.glued[s][len(h.glued[s])-1] = true
		}
		rec.LSN = uint64(len(h.logs[s]) + 1)
		h.logs[s] = append(h.logs[s], rec)
		h.glued[s] = append(h.glued[s], false)
		return rec.LSN
	}
	write := func(key string) []wal.Write { return []wal.Write{{Key: key}} }
	// A round names only its writers (read-only participants append nothing
	// and are not named); the lowest one coordinates.
	type genGroup struct {
		id      uint64
		parts   []uint64
		tids    map[int]uint64 // writers' prepare TIDs
		todo    []int          // writers whose share is not appended yet
		prepLSN map[int]uint64
		decided bool
		early   bool // decided before its last share was appended
	}
	start := func(minWriters int) *genGroup {
		gid++
		g := &genGroup{id: gid, tids: map[int]uint64{}, prepLSN: map[int]uint64{}}
		for s := 0; s < n; s++ {
			if n-s <= minWriters-len(g.parts) || rng.Intn(2) == 0 {
				g.parts = append(g.parts, uint64(s))
				tid++
				g.tids[s] = tid
				g.todo = append(g.todo, s)
			}
		}
		rng.Shuffle(len(g.todo), func(i, j int) { g.todo[i], g.todo[j] = g.todo[j], g.todo[i] })
		return g
	}
	// prepare appends the next writer's share of the round: its prepare, and
	// on the coordinator the decision glued to it.
	prepare := func(g *genGroup) int {
		s := g.todo[0]
		g.todo = g.todo[1:]
		g.prepLSN[s] = add(s, wal.Record{Kind: wal.KindPrepare, TID: g.tids[s], GlobalID: g.id,
			Writes: write(fmt.Sprintf("g%d", g.id))}, false)
		if s == int(g.parts[0]) {
			add(s, wal.Record{Kind: wal.KindDecision, TID: g.tids[s], GlobalID: g.id, Participants: g.parts}, true)
			g.decided, g.early = true, len(g.todo) > 0
		}
		return s
	}
	commit := func(g *genGroup) {
		if len(g.todo) > 0 {
			panic("commit of an incomplete round")
		}
		if g.early {
			h.earlyDecisions++
		}
		var members [][2]uint64
		for s, lsn := range g.prepLSN {
			h.committed[[2]uint64{uint64(s), lsn}] = true
			members = append(members, [2]uint64{uint64(s), lsn})
		}
		h.groups = append(h.groups, members)
	}
	// fail retracts every share the round appended; the rest never is.
	fail := func(g *genGroup) {
		for s := range g.prepLSN {
			add(s, wal.Record{Kind: wal.KindAbort, TID: g.tids[s]}, false)
		}
	}

	var inflight []*genGroup
	for step, steps := 0, 40+rng.Intn(80); step < steps || len(inflight) > 0; step++ {
		switch k := rng.Intn(10); {
		case step >= steps:
			g := inflight[0]
			for len(g.todo) > 0 {
				prepare(g)
			}
			commit(g)
			inflight = inflight[1:]
		case k < 4:
			s := rng.Intn(n)
			tid++
			lsn := add(s, wal.Record{Kind: wal.KindCommit, TID: tid, Writes: write(fmt.Sprintf("c%d", rng.Intn(4)))}, false)
			if rng.Intn(10) == 0 {
				add(s, wal.Record{Kind: wal.KindAbort, TID: tid}, true) // salvaged append
			} else {
				h.committed[[2]uint64{uint64(s), lsn}] = true
			}
		case k < 6 && len(inflight) < 3:
			inflight = append(inflight, start(1))
		case k < 9 && len(inflight) > 0:
			i := rng.Intn(len(inflight))
			g := inflight[i]
			switch outcome := rng.Intn(8); {
			case len(g.todo) > 0 && outcome == 0: // a force failed: the rest never lands
				fail(g)
			case len(g.todo) > 0 && outcome == 1: // this share's append failed and was salvaged
				s := prepare(g)
				add(s, wal.Record{Kind: wal.KindAbort, TID: g.tids[s]}, true)
				fail(g)
			case len(g.todo) > 0:
				prepare(g)
				continue
			default:
				commit(g)
			}
			inflight = append(inflight[:i], inflight[i+1:]...)
		case len(inflight) == 0:
			h.rounds = append(h.rounds, ends())
		}
	}
	if rng.Intn(3) == 0 {
		// The crash tail: some shares of a round of at least two writers are
		// durable, at least one is not, and nothing was retracted.
		g := start(2)
		for k := 1 + rng.Intn(len(g.todo)-1); k > 0; k-- {
			s := prepare(g)
			h.torn[[2]uint64{uint64(s), g.tids[s]}] = true
		}
		h.tornDecided = g.decided
	}
	return h
}

// resolveState is the installed state: the newest TID written to each key
// (every write's value is its TID), built the way installRecord builds it.
type resolveState map[string]uint64

func (st resolveState) install(s int, rec *wal.Record) {
	for _, w := range rec.Writes {
		k := fmt.Sprintf("%d/%s", s, w.Key)
		st[k] = max(st[k], rec.TID)
	}
}

// checkpoint installs the committed records at or below floors, as a
// checkpoint round's blobs would carry them, and marks them installed.
func (h *resolveHistory) checkpoint(st resolveState, installed map[[2]uint64]bool, floors []uint64) {
	for s, log := range h.logs {
		for i := range log[:floors[s]] {
			if at := [2]uint64{uint64(s), log[i].LSN}; h.committed[at] {
				st.install(s, &log[i])
				installed[at] = true
			}
		}
	}
}

func resolveOneSeed(t *testing.T, seed int64) *resolveHistory {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d (rerun with -resolveseed=%d): "+format, append([]any{seed, seed}, args...)...)
	}
	h := genResolveHistory(rng)
	n := len(h.logs)

	want := resolveState{}
	for s, log := range h.logs {
		for i := range log {
			if h.committed[[2]uint64{uint64(s), log[i].LSN}] {
				want.install(s, &log[i])
			}
		}
	}

	// Streaming.
	got, installed := resolveState{}, map[[2]uint64]bool{}
	install := func(s int, rec *wal.Record) {
		at := [2]uint64{uint64(s), rec.LSN}
		if !h.committed[at] {
			fail("installed shard %d LSN %d (%v), which never committed", s, rec.LSN, rec.Kind)
		}
		got.install(s, rec)
		installed[at] = true
	}
	check := func() {
		for _, members := range h.groups {
			for _, m := range members[1:] {
				if installed[m] != installed[members[0]] {
					fail("group torn after an apply round: %v installed %v, %v installed %v", members[0], installed[members[0]], m, installed[m])
				}
			}
		}
		for s, log := range h.logs {
			// Below the current record: a committed record, or a committed
			// commit, that is not installed yet.
			var pending, pendingCommit bool
			for i := range log {
				at := [2]uint64{uint64(s), log[i].LSN}
				if !h.committed[at] {
					continue
				}
				if installed[at] && (pendingCommit || pending && log[i].Kind == wal.KindCommit) {
					fail("shard %d LSN %d installed ahead of a record queued before it", s, log[i].LSN)
				}
				pending = pending || !installed[at]
				pendingCommit = pendingCommit || !installed[at] && log[i].Kind == wal.KindCommit
			}
		}
	}
	res := newResolver(n)
	pos := make([]int, n)
	staged := make([][]wal.ShippedRecord, n)
	// feed is the replica's mirror pass: each shard's feedable prefix, until
	// no shard moves.
	feed := func() {
		for moved := true; moved; {
			moved = false
			for s := range staged {
				k := res.feedable(s, staged[s])
				for i := range staged[s][:k] {
					res.feed(s, &staged[s][i].Record)
				}
				staged[s], moved = staged[s][k:], moved || k > 0
			}
		}
	}
	for round := 0; ; {
		var open []int
		for s := range pos {
			if pos[s] < len(h.logs[s]) {
				open = append(open, s)
			}
		}
		if len(open) == 0 {
			break
		}
		if round < len(h.rounds) && rng.Intn(8) == 0 {
			round += rng.Intn(len(h.rounds) - round)
			floors := h.rounds[round]
			round++
			h.checkpoint(got, installed, floors)
			res.setFloors(floors)
			if rng.Intn(2) == 0 { // the covered records are never shipped
				for s := range pos {
					pos[s] = max(pos[s], int(floors[s]))
				}
			}
			feed() // the new floors may release a held decision
		} else {
			s := open[rng.Intn(len(open))]
			for k := 1 + rng.Intn(4); pos[s] < len(h.logs[s]) && (k > 0 || h.glued[s][pos[s]-1]); k-- {
				staged[s] = append(staged[s], wal.ShippedRecord{Record: h.logs[s][pos[s]]})
				pos[s]++
			}
			feed()
			if rng.Intn(3) > 0 && len(staged[s]) == 0 {
				res.fedThrough(s, uint64(pos[s]))
			}
		}
		if rng.Intn(2) == 0 && res.ready() {
			res.apply(install)
			check()
		}
	}
	for s := range pos {
		if len(staged[s]) == 0 {
			res.fedThrough(s, uint64(pos[s]))
		}
	}
	res.ready()
	res.apply(install)
	check()
	for s := range res.shards {
		if q := res.shards[s].queue; len(q) > 0 && !h.torn[[2]uint64{uint64(s), q[0].TID}] {
			fail("streaming feed left shard %d with %d records queued behind LSN %d", s, len(q), q[0].LSN)
		}
	}
	if !reflect.DeepEqual(got, want) {
		fail("streaming feed installed\n%v\nwant the committed history\n%v", got, want)
	}

	// Batch, behind the newest round.
	batch := resolveState{}
	res = newResolver(n)
	if len(h.rounds) > 0 {
		floors := h.rounds[len(h.rounds)-1]
		h.checkpoint(batch, map[[2]uint64]bool{}, floors)
		res.setFloors(floors)
	}
	for s, log := range h.logs {
		retracted := map[uint64]uint64{}
		for _, rec := range log {
			if rec.Kind == wal.KindAbort {
				retracted[rec.TID] = rec.LSN
			}
		}
		for i := range log {
			if log[i].Kind != wal.KindAbort && retracted[log[i].TID] <= log[i].LSN {
				res.feed(s, &log[i])
				res.apply(batch.install)
			}
		}
	}
	presumed := map[[2]uint64]bool{}
	res.close(func(s int, tid uint64) { presumed[[2]uint64{uint64(s), tid}] = true })
	res.ready()
	res.apply(batch.install)
	if !reflect.DeepEqual(batch, want) {
		fail("batch feed installed\n%v\nwant the committed history\n%v", batch, want)
	}
	if !reflect.DeepEqual(presumed, h.torn) && len(presumed)+len(h.torn) > 0 {
		fail("close presumed %v aborted, want the torn crash tail %v", presumed, h.torn)
	}
	if len(res.groups) > 0 {
		fail("batch feed left %d groups behind", len(res.groups))
	}
	return h
}
