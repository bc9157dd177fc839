package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"reactdb/internal/engine"
	"reactdb/internal/rel"
)

// ErrConnClosed is returned by requests on a closed or failed connection.
var ErrConnClosed = errors.New("server: connection closed")

// RedialPolicy bounds a Conn's automatic reconnection. The zero value
// disables it — a failed connection stays failed, matching plain Dial.
type RedialPolicy struct {
	// Attempts is how many consecutive dial failures are tolerated before the
	// Conn is declared permanently dead. Successful redials reset the count.
	Attempts int
	// Backoff is the wait before the first redial attempt, doubling per
	// failure (default 2ms when Attempts > 0).
	Backoff time.Duration
	// MaxBackoff caps the doubling (default 250ms).
	MaxBackoff time.Duration
}

func (p RedialPolicy) withDefaults() RedialPolicy {
	if p.Attempts > 0 {
		if p.Backoff <= 0 {
			p.Backoff = 2 * time.Millisecond
		}
		if p.MaxBackoff <= 0 {
			p.MaxBackoff = 250 * time.Millisecond
		}
	}
	return p
}

// Conn is one client connection to a server. It is safe for concurrent use:
// requests are pipelined on the single socket and matched to responses by
// request id, so many goroutines can share one Conn without head-of-line
// round-trips. Every response refreshes the connection's load hints.
//
// With a RedialPolicy (DialRedial), a broken socket is redialed in the
// background with bounded exponential backoff: requests in flight when the
// socket died still fail with ErrConnClosed (their outcome is unknowable —
// the server may or may not have executed them), but later requests block
// until the redial succeeds or the policy's attempt budget is exhausted, at
// which point the Conn is permanently dead.
type Conn struct {
	addr   string
	role   Role
	redial RedialPolicy

	mu      sync.Mutex
	cond    *sync.Cond // broadcast when sock changes or the Conn dies
	sock    *socket    // nil while disconnected
	dialing bool
	pending map[uint64]*call
	dead    error

	nextID  atomic.Uint64
	redials atomic.Uint64
	hints   atomic.Pointer[LoadHints] // what it points to is never modified
}

// socket is one established connection of a Conn: a redial replaces the whole
// value, so a pointer comparison tells whether a failure is news.
type socket struct {
	nc net.Conn
	w  frameWriter
}

// call is one request in flight: the frame being sent, the decoded reply and
// the channel its caller sleeps on. Calls are recycled through callPool, so a
// round trip allocates neither a reply channel nor buffers.
//
// A registered call is delivered to exactly once — by whoever removes it from
// Conn.pending, the read loop with a result or a teardown with an error — and
// its caller always takes that delivery before recycling it, which is why a
// recycled call can never see a stale response.
type call struct {
	frame []byte     // the request frame, encoded before any lock is taken
	res   resultMsg  // the reply, decoded in place by the read loop
	done  chan error // nil: res holds the reply; capacity 1, one send per registration
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan error, 1)} }}

func getCall() *call { return callPool.Get().(*call) }

// putCall recycles a call whose delivery has been taken, dropping what the
// reply referenced.
func putCall(cl *call) {
	cl.res = resultMsg{}
	if cap(cl.frame) > ioBufSize {
		cl.frame = nil
	}
	callPool.Put(cl)
}

// Dial connects to a server, performs the connect/hello handshake and starts
// the response reader. The connection does not recover from failures; see
// DialRedial.
func Dial(addr string) (*Conn, error) {
	return DialRedial(addr, RedialPolicy{})
}

// DialRedial is Dial with automatic reconnection under the given policy.
func DialRedial(addr string, policy RedialPolicy) (*Conn, error) {
	sock, fr, role, err := dialSocket(addr)
	if err != nil {
		return nil, err
	}
	c := &Conn{
		addr:    addr,
		role:    role,
		redial:  policy.withDefaults(),
		sock:    sock,
		pending: make(map[uint64]*call),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.readLoop(sock, fr)
	return c, nil
}

// dialSocket establishes one socket: TCP dial plus the connect/hello
// handshake. The frame reader it returns may already hold bytes that followed
// the hello, so the read loop must go on with it.
func dialSocket(addr string) (*socket, *frameReader, Role, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, 0, err
	}
	sock := &socket{nc: nc}
	sock.w.init(nc)
	if err := sock.w.write(appendIDFrame(nil, frameConnect, protocolVersion)); err != nil {
		nc.Close()
		return nil, nil, 0, err
	}
	fr := newFrameReader(nc)
	typ, body, err := fr.next()
	if err != nil {
		nc.Close()
		return nil, nil, 0, err
	}
	if typ != frameHello || len(body) < 1 {
		nc.Close()
		return nil, nil, 0, errCorruptFrame
	}
	return sock, fr, Role(body[0]), nil
}

// Role reports the server's role from the most recent hello frame. After a
// failover the far end may have been promoted; the role in the piggybacked
// hints is the live signal, this is the handshake's snapshot.
func (c *Conn) Role() Role {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.role
}

// Addr reports the dialed address.
func (c *Conn) Addr() string { return c.addr }

// Redials reports how many times the connection has been successfully
// re-established.
func (c *Conn) Redials() uint64 { return c.redials.Load() }

// Hints returns the load hints piggybacked on the most recent response, or a
// zero value if none has arrived yet.
func (c *Conn) Hints() LoadHints {
	if h := c.hints.Load(); h != nil {
		return *h
	}
	return LoadHints{Role: c.Role()}
}

// Close tears down the connection permanently; in-flight requests fail with
// ErrConnClosed and no redial is attempted.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = ErrConnClosed
	}
	sock := c.sock
	c.sock = nil
	failed := c.takePending()
	c.cond.Broadcast()
	c.mu.Unlock()
	var err error
	if sock != nil {
		err = sock.nc.Close()
	}
	for _, cl := range failed {
		cl.done <- ErrConnClosed
	}
	return err
}

// takePending empties the pending table and returns what was in it; the
// caller, which holds c.mu, now owes every one of those calls its delivery.
func (c *Conn) takePending() map[uint64]*call {
	failed := c.pending
	c.pending = make(map[uint64]*call)
	return failed
}

// readLoop delivers the results arriving on one socket to the calls waiting
// for them, and publishes the load hints each result carries.
func (c *Conn) readLoop(sock *socket, fr *frameReader) {
	// Hints are decoded into scratch; published is their encoding as of the
	// last time a copy went out through c.hints, which only happens when they
	// changed: a server re-collects them every HintRefresh, not per response.
	var scratch LoadHints
	var published []byte
	for {
		typ, body, err := fr.next()
		if err != nil {
			c.dropSocket(sock, err)
			return
		}
		if typ != frameResult {
			continue
		}
		r := reader{buf: body}
		id := r.uvarint()
		c.mu.Lock()
		cl := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		// From here on this loop owns the call (if one was waiting): nobody
		// else can find it, so the reply is decoded straight into it.
		var unclaimed resultMsg
		m := &unclaimed
		if cl != nil {
			m = &cl.res
			m.ID = id
		}
		raw := r.result(m, &scratch)
		if r.err != nil {
			if cl != nil {
				cl.done <- fmt.Errorf("%w: %v", ErrConnClosed, r.err)
			}
			c.dropSocket(sock, r.err)
			return
		}
		if !bytes.Equal(raw, published) {
			h := scratch
			h.Executors = append([]ExecutorHint(nil), scratch.Executors...)
			c.hints.Store(&h)
			published = append(published[:0], raw...)
		}
		if cl != nil {
			cl.done <- nil
		}
	}
}

// dropSocket tears down one broken socket: requests in flight on it fail with
// ErrConnClosed wrapping the cause (their frames are lost with it), and —
// under a redial policy — a background dial loop starts unless one is already
// running or the Conn is dead. A socket that was already replaced, or a Conn
// that Close got to first, makes it a no-op.
func (c *Conn) dropSocket(sock *socket, cause error) {
	sock.nc.Close()
	err := fmt.Errorf("%w: %v", ErrConnClosed, cause)
	c.mu.Lock()
	if c.sock != sock || c.dead != nil {
		c.mu.Unlock()
		return
	}
	c.sock = nil
	failed := c.takePending()
	if c.redial.Attempts <= 0 {
		c.dead = err
	} else if !c.dialing {
		c.dialing = true
		go c.redialLoop()
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, cl := range failed {
		cl.done <- err
	}
}

// redialLoop re-establishes the socket with bounded exponential backoff.
func (c *Conn) redialLoop() {
	backoff := c.redial.Backoff
	for attempt := 1; ; attempt++ {
		time.Sleep(backoff)
		c.mu.Lock()
		if c.dead != nil {
			c.dialing = false
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		sock, fr, role, err := dialSocket(c.addr)
		if err == nil {
			c.mu.Lock()
			if c.dead != nil {
				c.mu.Unlock()
				sock.nc.Close()
				return
			}
			c.role = role
			c.sock = sock
			c.dialing = false
			c.redials.Add(1)
			c.cond.Broadcast()
			c.mu.Unlock()
			go c.readLoop(sock, fr)
			return
		}
		if attempt >= c.redial.Attempts {
			c.mu.Lock()
			if c.dead == nil {
				c.dead = fmt.Errorf("%w: redial gave up after %d attempts: %v", ErrConnClosed, attempt, err)
			}
			c.dialing = false
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		if backoff *= 2; backoff > c.redial.MaxBackoff {
			backoff = c.redial.MaxBackoff
		}
	}
}

// register blocks until a live socket is available (or returns the Conn's
// permanent error) and enters the call in the pending table under id. Without
// a redial policy this never blocks: the socket is either live or the Conn is
// dead.
func (c *Conn) register(id uint64, cl *call) (*socket, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.dead != nil {
			return nil, c.dead
		}
		if c.sock != nil {
			c.pending[id] = cl
			return c.sock, nil
		}
		c.cond.Wait()
	}
}

// roundTrip sends cl.frame, the already encoded request id, and waits for its
// reply to land in cl.res. A reply with a non-OK status is returned as the
// error it stands for.
func (c *Conn) roundTrip(id uint64, cl *call) error {
	sock, err := c.register(id, cl)
	if err != nil {
		return err
	}
	if err := sock.w.write(cl.frame); err != nil {
		// This socket is broken: fail everything in flight on it. That
		// includes this call — it was registered while the socket was current,
		// so either this teardown or the one that beat it to it delivers the
		// error below.
		c.dropSocket(sock, err)
	}
	if err := <-cl.done; err != nil {
		return err
	}
	return statusErr(&cl.res)
}

// Execute runs a procedure on the server and returns its result, exactly as
// engine.Database.Execute would in process.
func (c *Conn) Execute(reactor, procedure string, args ...any) (any, error) {
	return c.ExecuteFresh(0, reactor, procedure, args...)
}

// ExecuteFresh is Execute with a freshness bound: when the server is a replica
// whose lag exceeds maxLag records (or is degraded), it answers Stale without
// running and the call returns ErrStale. maxLag 0 means unbounded.
func (c *Conn) ExecuteFresh(maxLag uint64, reactor, procedure string, args ...any) (any, error) {
	cl := getCall()
	defer putCall(cl)
	req := executeReq{
		ID:            c.nextID.Add(1),
		MaxLagRecords: maxLag,
		Reactor:       reactor,
		Procedure:     procedure,
		Args:          args,
	}
	var err error
	if cl.frame, err = req.appendFrame(cl.frame[:0]); err != nil {
		return nil, err
	}
	if err := c.roundTrip(req.ID, cl); err != nil {
		return nil, err
	}
	return cl.res.Value, nil
}

// Query runs a declarative query on the server, exactly as
// engine.Database.Query would in process.
func (c *Conn) Query(q *rel.Query) (*rel.Result, error) {
	return c.QueryFresh(0, q)
}

// QueryFresh is Query with a freshness bound (see ExecuteFresh).
func (c *Conn) QueryFresh(maxLag uint64, q *rel.Query) (*rel.Result, error) {
	cl := getCall()
	defer putCall(cl)
	req := queryReq{ID: c.nextID.Add(1), MaxLagRecords: maxLag, Query: q}
	var err error
	if cl.frame, err = req.appendFrame(cl.frame[:0]); err != nil {
		return nil, err
	}
	if err := c.roundTrip(req.ID, cl); err != nil {
		return nil, err
	}
	return cl.res.Result, nil
}

// Stats fetches fresh load hints with an explicit stats frame (normal traffic
// gets them for free on every response).
func (c *Conn) Stats() (LoadHints, error) {
	cl := getCall()
	defer putCall(cl)
	id := c.nextID.Add(1)
	cl.frame = appendIDFrame(cl.frame[:0], frameStats, id)
	if err := c.roundTrip(id, cl); err != nil {
		return LoadHints{}, err
	}
	// The read loop published the reply's hints before it woke this call.
	return c.Hints(), nil
}

// statusErr maps a result's wire status back to an error. Statuses carrying a
// known sentinel reconstruct it so errors.Is works across the wire; when the
// server's message is exactly the sentinel's, the sentinel itself is returned
// so remote and in-process error text match.
func statusErr(m *resultMsg) error {
	switch m.Status {
	case statusOK:
		return nil
	case statusOverloaded:
		return sentinelOr(engine.ErrOverloaded, m.ErrMsg)
	case statusConflict:
		return sentinelOr(engine.ErrConflict, m.ErrMsg)
	case statusReplicaWrite:
		return sentinelOr(engine.ErrReplicaRead, m.ErrMsg)
	case statusStale:
		return sentinelOr(ErrStale, m.ErrMsg)
	case statusNotPrimary:
		return sentinelOr(ErrNotPrimary, m.ErrMsg)
	default:
		return errors.New(m.ErrMsg)
	}
}

func sentinelOr(sentinel error, msg string) error {
	if msg == "" || msg == sentinel.Error() {
		return sentinel
	}
	return fmt.Errorf("%w: %s", sentinel, msg)
}
