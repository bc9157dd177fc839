package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"reactdb/internal/engine"
	"reactdb/internal/rel"
)

// RouterOptions tune a Router. The zero value is usable.
type RouterOptions struct {
	// MaxLagRecords is the freshness bound for replica reads: a replica more
	// than this many records behind the primary's durable LSN is not served a
	// read (0 = any replica will do).
	MaxLagRecords uint64
	// MaxRetries bounds retries of retryable statuses (default 4).
	MaxRetries int
	// RetryBackoff is the initial backoff between retries, doubling each
	// attempt (default 100µs).
	RetryBackoff time.Duration
	// Redial is the reconnection policy applied to every endpoint connection.
	// The zero value keeps plain-Dial semantics: a lost connection stays lost.
	// A failover deployment wants attempts here — the crashed primary's
	// address comes back as a re-attached replica, and the connection's
	// redial is what picks it up without rebuilding the router.
	Redial RedialPolicy
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.MaxRetries <= 0 {
		o.MaxRetries = 4
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 100 * time.Microsecond
	}
	return o
}

// Router is a client-side request router over one primary and any number of
// replicas. Writes always go to the primary; read-only traffic rotates over
// the replicas and the primary, and a read a replica cannot serve within the
// freshness bound is retried on the primary. It is safe for concurrent use.
//
// The primary assignment is not fixed: when a write is answered NotPrimary
// (the node was fenced by a supervised failover) or the primary connection is
// lost, the router asks every endpoint for its status and re-points writes at
// the one reporting the primary role at the highest epoch — the epoch, not
// the answer order, arbitrates when the deposed node still claims the role.
type Router struct {
	opts RouterOptions
	rr   atomic.Uint64

	mu       sync.RWMutex
	conns    []*Conn // every dialed endpoint, fixed at construction
	primary  *Conn
	replicas []*Conn
}

// NewRouter dials every endpoint (with the router's redial policy so a
// crashed node can rejoin) and classifies each by its hello role. Exactly one
// endpoint must be a primary.
func NewRouter(endpoints []string, opts RouterOptions) (*Router, error) {
	r := &Router{opts: opts.withDefaults()}
	for _, addr := range endpoints {
		c, err := dialRedial(addr, r.opts.Redial)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("server: router dial %s: %w", addr, err)
		}
		r.conns = append(r.conns, c)
		if c.Role() == RolePrimary {
			if r.primary != nil {
				r.Close()
				return nil, errors.New("server: router configured with two primaries")
			}
			r.primary = c
		} else {
			r.replicas = append(r.replicas, c)
		}
	}
	if r.primary == nil {
		r.Close()
		return nil, errors.New("server: router has no primary endpoint")
	}
	return r, nil
}

// Primary returns the current primary connection.
func (r *Router) Primary() *Conn {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.primary
}

// Replicas returns the current replica connections.
func (r *Router) Replicas() []*Conn {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*Conn(nil), r.replicas...)
}

// Close closes every connection.
func (r *Router) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.conns {
		c.Close()
	}
}

// rediscover re-classifies every endpoint after a failover signal: each is
// asked for its status, and the endpoint reporting the primary role at the
// highest epoch becomes the write target. The deposed primary typically still
// answers — role primary, old epoch, every request NotPrimary — which is
// exactly why the epoch decides. An endpoint that does not answer (crashed,
// mid-redial) is classified by the role of its last hello. A failed sweep (no
// primary found) keeps the previous assignment so the caller's retry loop can
// sweep again.
func (r *Router) rediscover() {
	roles := make([]Role, len(r.conns)) // r.conns is fixed at construction
	var best *Conn
	var bestEpoch uint64
	for i, c := range r.conns {
		st, err := c.Stats()
		if err != nil {
			roles[i] = c.Role()
			continue
		}
		roles[i] = st.Role
		if st.Role == RolePrimary && (best == nil || st.Epoch > bestEpoch) {
			best, bestEpoch = c, st.Epoch
		}
	}
	if best == nil {
		return
	}
	r.mu.Lock()
	r.primary = best
	r.replicas = r.replicas[:0]
	for i, c := range r.conns {
		// A non-best endpoint still claiming the primary role is the deposed
		// primary: it answers every request NotPrimary, so it serves no reads
		// either. Keep it out of the read set until a later sweep sees it
		// re-attached as a replica.
		if c != best && roles[i] != RolePrimary {
			r.replicas = append(r.replicas, c)
		}
	}
	r.mu.Unlock()
}

// Execute routes a read-write procedure to the primary, retrying Overloaded
// and Conflict answers with exponential backoff. A NotPrimary answer or a
// lost primary connection triggers endpoint rediscovery before the retry:
// after a supervised failover the very same call lands on the promoted node.
func (r *Router) Execute(reactor, procedure string, args ...any) (any, error) {
	backoff := r.opts.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= r.opts.MaxRetries; attempt++ {
		v, err := r.Primary().Execute(reactor, procedure, args...)
		switch {
		case err == nil:
			return v, nil
		case errors.Is(err, ErrNotPrimary) || errors.Is(err, ErrConnClosed):
			lastErr = err
			r.rediscover()
			time.Sleep(backoff)
			backoff *= 2
		case retryableOnPrimary(err):
			lastErr = err
			time.Sleep(backoff)
			backoff *= 2
		default:
			return v, err
		}
	}
	return nil, lastErr
}

func retryableOnPrimary(err error) bool {
	return errors.Is(err, engine.ErrOverloaded) || errors.Is(err, engine.ErrConflict)
}

// ExecuteRead routes a read-only procedure across replicas and primary (see
// Query for the policy).
func (r *Router) ExecuteRead(reactor, procedure string, args ...any) (any, error) {
	return r.readPath(func(c *Conn, maxLag uint64) (any, error) {
		return c.ExecuteFresh(maxLag, reactor, procedure, args...)
	})
}

// Query routes a declarative query. Reads rotate over replicas and primary,
// paying an extra round trip to the primary whenever a replica answers Stale
// (it is degraded or lags past the freshness bound) or refuses a write.
func (r *Router) Query(q *rel.Query) (*rel.Result, error) {
	v, err := r.readPath(func(c *Conn, maxLag uint64) (any, error) {
		return c.QueryFresh(maxLag, q)
	})
	if err != nil {
		return nil, err
	}
	res, _ := v.(*rel.Result)
	return res, nil
}

func (r *Router) readPath(do func(c *Conn, maxLag uint64) (any, error)) (any, error) {
	backoff := r.opts.RetryBackoff
	forcePrimary := false
	var lastErr error
	for attempt := 0; attempt <= r.opts.MaxRetries; attempt++ {
		primary := r.Primary()
		c := primary
		maxLag := r.opts.MaxLagRecords
		if !forcePrimary {
			c = r.pickRead()
		}
		if c == primary {
			maxLag = 0 // the primary is always fresh; no bound to enforce
		}
		v, err := do(c, maxLag)
		switch {
		case err == nil:
			return v, nil
		case errors.Is(err, ErrStale) || errors.Is(err, engine.ErrReplicaRead):
			// This replica cannot serve the read; the primary always can.
			// No backoff — the retry is redirection, not congestion control.
			forcePrimary = true
			lastErr = err
		case errors.Is(err, ErrNotPrimary) || errors.Is(err, ErrConnClosed):
			// The node was deposed mid-request or its connection died;
			// re-point at whoever holds the highest epoch and try again.
			lastErr = err
			r.rediscover()
			forcePrimary = false
			time.Sleep(backoff)
			backoff *= 2
		case errors.Is(err, engine.ErrOverloaded) || errors.Is(err, engine.ErrConflict):
			lastErr = err
			time.Sleep(backoff)
			backoff *= 2
		default:
			return nil, err
		}
	}
	return nil, lastErr
}

// pickRead chooses the endpoint for one read attempt: the next in rotation
// over the replicas and the primary.
func (r *Router) pickRead() *Conn {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if i := int(r.rr.Add(1) % uint64(len(r.replicas)+1)); i < len(r.replicas) {
		return r.replicas[i]
	}
	return r.primary
}
