package server

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/engine"
	"reactdb/internal/rel"
)

// Options tune a Server. The zero value is usable.
type Options struct {
	// MaxInFlight is the per-session pipelining window: how many requests a
	// connection may have outstanding before the server stops reading its
	// socket (default 64). Stalling the read is the transport-level
	// backpressure; the engine's admission gate is the transaction-level one,
	// surfaced as the Overloaded status rather than a dropped connection.
	MaxInFlight int
	// HintRefresh is the minimum interval between load-hint collections
	// (default 2ms): hints are piggybacked on every response but collected at
	// most this often, so a hot server does not pay a stats snapshot per
	// request.
	HintRefresh time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.HintRefresh <= 0 {
		o.HintRefresh = 2 * time.Millisecond
	}
	return o
}

// backend is the engine node a Server currently speaks for. It is immutable
// once built; a failover swaps the whole backend atomically (Promote), so a
// request observes one coherent node, never a half-switched one.
type backend struct {
	role    Role
	def     *core.DatabaseDef
	exec    func(reactor, procedure string, args ...any) (any, error)
	query   func(q *rel.Query) (*rel.Result, error)
	loads   func() []engine.ExecutorLoad
	lag     func() (lag uint64, degraded bool)
	epoch   func() uint64
	fenced  func() bool
	lastErr func() string
}

// deposed reports that this node claims the primary role but has been fenced
// by a newer epoch: a supervisor promoted a replica over it. It must not serve
// anything — writes would be rejected by the WAL fence anyway (losing the
// race is not an option, the fence is the guarantee), and reads could miss
// every commit acknowledged by its successor. Both are answered NotPrimary so
// the router re-points.
func (b *backend) deposed() bool {
	return b.role == RolePrimary && b.fenced != nil && b.fenced()
}

// Server exposes one engine node — a primary Database or a Replica — on the
// wire protocol. A process typically runs one Server per node it hosts, each
// on its own listener. The node behind a Server can be swapped at runtime
// (Promote): after a supervised failover the listener and its client
// connections survive, only the engine underneath changes.
type Server struct {
	backend atomic.Pointer[backend]
	opts    Options

	hintMu sync.Mutex
	hintAt time.Time
	hint   []byte // appendHints of the last collection; replaced, never modified

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
}

func primaryBackend(db *engine.Database) *backend {
	return &backend{
		role:   RolePrimary,
		def:    db.Definition(),
		exec:   db.Execute,
		query:  db.Query,
		loads:  db.ExecutorLoads,
		epoch:  db.Epoch,
		fenced: db.Fenced,
	}
}

func replicaBackend(rep *engine.Replica) *backend {
	return &backend{
		role:  RoleReplica,
		def:   rep.Database().Definition(),
		exec:  rep.Execute,
		query: rep.Query,
		loads: rep.Database().ExecutorLoads,
		epoch: rep.Database().Epoch,
		lag: func() (uint64, bool) {
			st := rep.Stats()
			var lag uint64
			for _, sh := range st.Shards {
				if sh.Lag > lag {
					lag = sh.Lag
				}
			}
			return lag, st.Degraded
		},
		lastErr: func() string { return rep.Stats().Err },
	}
}

// NewPrimary wraps a primary database.
func NewPrimary(db *engine.Database, opts Options) *Server {
	s := &Server{opts: opts.withDefaults(), conns: make(map[net.Conn]struct{})}
	s.backend.Store(primaryBackend(db))
	return s
}

// NewReplica wraps a read-only replica. Its hints carry the replica's
// corrected lag, degraded flag and last replication error; execute and query
// frames with a freshness bound the replica cannot meet are answered with the
// Stale status without running.
func NewReplica(rep *engine.Replica, opts Options) *Server {
	s := &Server{opts: opts.withDefaults(), conns: make(map[net.Conn]struct{})}
	s.backend.Store(replicaBackend(rep))
	return s
}

// Promote swaps the server's backend to a (newly promoted) primary database.
// Existing sessions keep their sockets: in-flight requests finish against
// whichever backend they started on, later ones run against the new primary.
// This is the supervisor's OnPromote hook — the replica this server used to
// wrap was consumed by the promotion, and the listener now fronts its
// successor.
func (s *Server) Promote(db *engine.Database) {
	s.backend.Store(primaryBackend(db))
	s.hintMu.Lock()
	s.hintAt = time.Time{} // the cached hints describe the deposed backend
	s.hintMu.Unlock()
}

// Swap points the server at a different replica, the re-point analog of
// Promote for replica-role servers whose engine replica was re-attached to a
// new primary (re-attachment closes the old Replica and returns a new one).
func (s *Server) Swap(rep *engine.Replica) {
	s.backend.Store(replicaBackend(rep))
	s.hintMu.Lock()
	s.hintAt = time.Time{}
	s.hintMu.Unlock()
}

// Start listens on addr ("host:port", ":0" for an ephemeral port) and serves
// in the background, returning the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { _ = s.Serve(lis) }()
	return lis.Addr(), nil
}

// Serve accepts sessions on lis until the listener fails or the server is
// closed. It returns nil on Close.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return errors.New("server: closed")
	}
	s.listeners = append(s.listeners, lis)
	s.mu.Unlock()
	for {
		c, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.session(c)
	}
}

// Close stops the listeners, closes every session and waits for their
// in-flight requests to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, lis := range s.listeners {
		lis.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) forget(c net.Conn) {
	c.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// session is one connection's lifecycle: the connect/hello handshake, then a
// read loop that dispatches each pipelined request on its own goroutine.
// Responses may complete out of order; the client matches them by request id.
// The read loop takes a recycled request from the free list for every frame;
// the list is the pipelining window — once MaxInFlight requests are out it
// stops reading the socket, which propagates as TCP backpressure to the client.
// A request is out until its response has been written, or queued within the
// frameWriter's bound: a client that does not read its responses stalls the
// session after MaxInFlight of them instead of filling the server's memory.
func (s *Server) session(c net.Conn) {
	defer s.wg.Done()
	defer s.forget(c)
	fr := newFrameReader(c)
	typ, body, err := fr.next()
	if err != nil || typ != frameConnect {
		return
	}
	r := reader{buf: body}
	if v := r.uvarint(); r.err != nil || v != protocolVersion {
		return
	}
	sess := &session{srv: s, conn: c, free: make(chan *request, s.opts.MaxInFlight)}
	sess.w.init(c)
	if err := sess.w.write(appendHelloFrame(nil, s.backend.Load().role)); err != nil {
		return
	}

	made := 0 // requests created so far; each is in flight or on the free list
	defer func() {
		for ; made > 0; made-- {
			<-sess.free // wait for the requests still in flight
		}
	}()
	for {
		typ, body, err := fr.next()
		if err != nil {
			return
		}
		var q *request
		select {
		case q = <-sess.free:
		default:
			if made < cap(sess.free) {
				q = &request{sess: sess}
				q.run = q.serve
				made++
			} else {
				q = <-sess.free
			}
		}
		q.typ = typ
		q.in = append(q.in[:0], body...)
		go q.run()
	}
}

// session is the state the requests of one connection share.
type session struct {
	srv  *Server
	conn net.Conn
	w    frameWriter
	free chan *request // requests not in flight; capacity is the window
}

// request is one pipelined request from socket to executor and back: the
// frame body as it arrived, what it decodes to, the result and the response
// frame. A session recycles its requests, so a request in the steady state
// allocates only what its arguments and its result need.
type request struct {
	sess *session
	run  func() // q.serve, bound once so that starting the goroutine allocates nothing
	typ  uint8
	in   []byte // the request body, copied out of the session's read buffer
	exec executeReq
	res  resultMsg
	out  []byte // the response frame
}

// serve runs the request and sends its response, then returns the request to
// the session's free list.
func (q *request) serve() {
	s := q.sess.srv
	s.handle(q)
	hints := s.currentHints()
	out, err := q.res.appendFrame(q.out[:0], hints)
	if err != nil {
		// The payload was not wire-encodable (a procedure returned an
		// unsupported type) or does not fit a frame; degrade to an error
		// result so the session — and the requests pipelined behind this one
		// — live.
		msg := err.Error()
		if errors.Is(err, errFrameTooLarge) {
			msg = "server: result too large: " + msg
		}
		q.res = resultMsg{ID: q.res.ID, Status: statusError, ErrMsg: msg}
		out, _ = q.res.appendFrame(q.out[:0], hints)
	}
	if err := q.sess.w.write(out); err != nil {
		q.sess.conn.Close() // the stream is torn; stop reading requests from it
	}
	// Drop what the request referenced, and any buffer a single large frame
	// grew beyond what the next request is likely to need.
	clear(q.exec.Args)
	if cap(q.exec.Args) > maxPrealloc {
		q.exec.Args = nil
	}
	q.res = resultMsg{}
	q.out = out[:0]
	if cap(q.in) > ioBufSize {
		q.in = nil
	}
	if cap(q.out) > ioBufSize {
		q.out = nil
	}
	q.sess.free <- q
}

// handle decodes the request and runs it against the current backend, leaving
// the outcome in q.res.
func (s *Server) handle(q *request) {
	b := s.backend.Load()
	m := &q.res
	switch q.typ {
	case frameExecute:
		req := &q.exec
		err := req.decode(q.in, b.def)
		m.ID = req.ID // the id comes first: a body that fails further in still names its caller
		if err != nil {
			m.Status, m.ErrMsg = statusError, err.Error()
			return
		}
		switch {
		case b.deposed():
			m.Status, m.ErrMsg = statusNotPrimary, ErrNotPrimary.Error()
		case s.tooStale(b, req.MaxLagRecords):
			m.Status, m.ErrMsg = statusStale, ErrStale.Error()
		default:
			v, err := b.exec(req.Reactor, req.Procedure, req.Args...)
			m.Status, m.ErrMsg = statusOf(err)
			if m.Status == statusOK {
				m.Kind, m.Value = payloadValue, v
			}
		}
	case frameQuery:
		var req queryReq
		err := req.decode(q.in)
		m.ID = req.ID
		if err != nil {
			m.Status, m.ErrMsg = statusError, err.Error()
			return
		}
		switch {
		case b.deposed():
			m.Status, m.ErrMsg = statusNotPrimary, ErrNotPrimary.Error()
		case s.tooStale(b, req.MaxLagRecords):
			m.Status, m.ErrMsg = statusStale, ErrStale.Error()
		default:
			res, err := b.query(req.Query)
			m.Status, m.ErrMsg = statusOf(err)
			if m.Status == statusOK {
				m.Kind, m.Result = payloadQuery, res
			}
		}
	case frameStats:
		r := reader{buf: q.in}
		m.ID, m.Status = r.uvarint(), statusOK
	default:
		m.Status, m.ErrMsg = statusError, "server: unknown frame type"
	}
}

// tooStale reports whether a replica cannot meet the request's freshness
// bound (0 = unbounded). A degraded replica fails any bound: its mirror is
// gone, so its lag is no longer being promised to anyone. The lag is read
// live, not from the HintRefresh cache — the bound is a promise to the
// client, and a cached value lets a write land and be read back stale
// within one refresh window. Piggybacked hints stay cached: advisory
// routing data tolerates the staleness that an enforced bound cannot.
func (s *Server) tooStale(b *backend, maxLag uint64) bool {
	if b.role != RoleReplica || maxLag == 0 || b.lag == nil {
		return false
	}
	lag, degraded := b.lag()
	return degraded || lag > maxLag
}

// statusOf maps an engine error to a wire status. Overloaded and Conflict are
// distinct from plain errors so a client can retry them without parsing
// strings.
func statusOf(err error) (uint8, string) {
	switch {
	case err == nil:
		return statusOK, ""
	case errors.Is(err, engine.ErrOverloaded):
		return statusOverloaded, err.Error()
	case errors.Is(err, engine.ErrConflict):
		return statusConflict, err.Error()
	case errors.Is(err, engine.ErrReplicaRead):
		return statusReplicaWrite, err.Error()
	default:
		return statusError, err.Error()
	}
}

// currentHints returns the encoded load hints, recollected — and re-encoded —
// at most every HintRefresh. The slice is shared by every response of that
// interval and must not be modified.
func (s *Server) currentHints() []byte {
	s.hintMu.Lock()
	defer s.hintMu.Unlock()
	if !s.hintAt.IsZero() && time.Since(s.hintAt) < s.opts.HintRefresh {
		return s.hint
	}
	b := s.backend.Load()
	loads := b.loads()
	h := LoadHints{Role: b.role, Executors: make([]ExecutorHint, 0, len(loads))}
	for _, l := range loads {
		h.Executors = append(h.Executors, ExecutorHint{
			Container:      l.Container,
			Executor:       l.Executor,
			Depth:          l.Depth,
			InFlight:       l.InFlight,
			EffectiveDepth: l.EffectiveDepth,
			WaitP99Micros:  uint64(l.WaitP99 / time.Microsecond),
		})
	}
	if b.lag != nil {
		h.LagRecords, h.Degraded = b.lag()
	}
	if b.epoch != nil {
		h.Epoch = b.epoch()
	}
	if b.lastErr != nil {
		h.Err = b.lastErr()
	}
	// Sized for the common case, small counters: two bytes a field.
	s.hint = appendHints(make([]byte, 0, 16+len(h.Err)+12*len(h.Executors)), &h)
	s.hintAt = time.Now()
	return s.hint
}
