package server

import (
	"errors"
	"net"
	"sync"

	"reactdb/internal/engine"
)

// Options tune a Server. The zero value is usable.
type Options struct {
	// MaxInFlight is the per-session pipelining window: how many requests a
	// connection may have outstanding before the server stops reading its
	// socket (default 64). Stalling the read is the transport-level
	// backpressure; the engine's admission gate is the transaction-level one,
	// surfaced as the Overloaded status rather than a dropped connection.
	MaxInFlight int
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	return o
}

// Server exposes one engine node — a primary Database or a Replica — on the
// wire protocol. A process typically runs one Server per node it hosts, each
// on its own listener. A Server fronts the node it was built with for life
// and reads its role, epoch, fence and lag off that node on every request,
// so a failover needs no call on it: a replica promoted in place answers as
// the primary, a deposed primary answers NotPrimary, and a re-pointed replica
// keeps serving from the database its handle holds now.
type Server struct {
	db   *engine.Database // the node of a NewPrimary server
	rep  *engine.Replica  // the node of a NewReplica server
	opts Options

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// NewPrimary wraps a primary database.
func NewPrimary(db *engine.Database, opts Options) *Server {
	return &Server{db: db, opts: opts.withDefaults(), conns: make(map[net.Conn]struct{})}
}

// NewReplica wraps a read-only replica. Its status carries the replica's
// corrected lag, degraded flag and last replication error; execute and query
// frames with a freshness bound the replica cannot meet are answered with the
// Stale status without running.
func NewReplica(rep *engine.Replica, opts Options) *Server {
	return &Server{rep: rep, opts: opts.withDefaults(), conns: make(map[net.Conn]struct{})}
}

// node returns the database the server answers for now: a replica's changes
// when a re-point has to reopen it.
func (s *Server) node() *engine.Database {
	if s.rep != nil {
		return s.rep.Database()
	}
	return s.db
}

func roleOf(db *engine.Database) Role {
	if db.IsReplica() {
		return RoleReplica
	}
	return RolePrimary
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
	if err := sess.w.write(appendHelloFrame(nil, roleOf(s.node()))); err != nil {
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
	out, err := q.res.appendFrame(q.out[:0])
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
		out, _ = q.res.appendFrame(q.out[:0])
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

// handle decodes the request and runs it against the node's database as it
// is now, leaving the outcome in q.res.
func (s *Server) handle(q *request) {
	db := s.node()
	m := &q.res
	switch q.typ {
	case frameExecute:
		req := &q.exec
		err := req.decode(q.in, db.Definition())
		m.ID = req.ID // the id comes first: a body that fails further in still names its caller
		if err != nil {
			m.Status, m.ErrMsg = statusError, err.Error()
			return
		}
		if m.Status, m.ErrMsg = s.refusal(db, req.MaxLagRecords); m.Status == statusOK {
			v, err := db.Execute(req.Reactor, req.Procedure, req.Args...)
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
		if m.Status, m.ErrMsg = s.refusal(db, req.MaxLagRecords); m.Status == statusOK {
			res, err := db.Query(req.Query)
			m.Status, m.ErrMsg = statusOf(err)
			if m.Status == statusOK {
				m.Kind, m.Result = payloadQuery, res
			}
		}
	case frameStats:
		r := reader{buf: q.in}
		m.ID, m.Status = r.uvarint(), statusOK
		m.Kind, m.Node = payloadStatus, s.status(db)
	default:
		m.Status, m.ErrMsg = statusError, "server: unknown frame type"
	}
}

// refusal is the status of a request the node must not run, statusOK when it
// may. A deposed primary — fenced by a newer epoch: a supervisor promoted a
// replica over it — serves nothing: writes would be rejected by the WAL fence
// anyway (the fence is the guarantee), and reads could miss every commit
// acknowledged by its successor; both are answered NotPrimary so the router
// re-points. A replica that cannot meet the request's freshness bound (0 =
// unbounded) answers Stale; a degraded one fails any bound, since its mirror
// is gone and its lag is no longer promised to anyone. The lag takes the
// applied side from the replica's last finished round, so it is never below
// the live lag: a lag read low would let a write land and be read back stale.
func (s *Server) refusal(db *engine.Database, maxLag uint64) (uint8, string) {
	if !db.IsReplica() {
		if db.Fenced() {
			return statusNotPrimary, ErrNotPrimary.Error()
		}
		return statusOK, ""
	}
	if maxLag > 0 && s.rep != nil {
		if lag, degraded, _ := s.rep.Health(); degraded || lag > maxLag {
			return statusStale, ErrStale.Error()
		}
	}
	return statusOK, ""
}

// status collects the node's status for a stats frame.
func (s *Server) status(db *engine.Database) NodeStatus {
	st := NodeStatus{Role: roleOf(db), Epoch: db.Epoch()}
	if st.Role == RoleReplica && s.rep != nil {
		var err error
		if st.LagRecords, st.Degraded, err = s.rep.Health(); err != nil {
			st.Err = err.Error()
		}
	}
	return st
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
