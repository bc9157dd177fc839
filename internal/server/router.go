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

// Policy selects how the Router spreads reads and paces writes.
type Policy uint8

const (
	// PolicyRoundRobin rotates reads over every endpoint blindly and retries
	// Stale answers on the primary — each stale hit costs an extra round trip.
	PolicyRoundRobin Policy = iota
	// PolicyAware consumes the piggybacked load hints: reads skip replicas
	// that are degraded or lagging past the freshness bound and go to the
	// least-loaded eligible endpoint; writes briefly defer when the primary's
	// admission gate is saturated instead of slamming it into ErrOverloaded.
	PolicyAware
)

func (p Policy) String() string {
	if p == PolicyAware {
		return "aware"
	}
	return "roundrobin"
}

// RouterOptions tune a Router. The zero value is usable.
type RouterOptions struct {
	Policy Policy
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
// replicas. Writes always go to the primary; read-only traffic fans out to
// replicas with the primary as fallback. It is safe for concurrent use.
//
// The primary assignment is not fixed: when a write is answered NotPrimary
// (the node was fenced by a supervised failover) or the primary connection is
// lost, the router polls every endpoint's hints and re-points writes at the
// one reporting the primary role at the highest epoch — the epoch, not the
// answer order, arbitrates when the deposed node still claims the role.
type Router struct {
	opts RouterOptions
	rr   atomic.Uint64

	mu       sync.RWMutex
	conns    []*Conn // every dialed endpoint, fixed at construction
	primary  *Conn
	replicas []*Conn
}

// NewRouter dials every endpoint (with the router's redial policy so a
// crashed node can rejoin), classifies each by its hello role, and primes
// load hints with a stats round trip. Exactly one endpoint must be a primary.
func NewRouter(endpoints []string, opts RouterOptions) (*Router, error) {
	r := &Router{opts: opts.withDefaults()}
	for _, addr := range endpoints {
		c, err := DialRedial(addr, r.opts.Redial)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("server: router dial %s: %w", addr, err)
		}
		r.conns = append(r.conns, c)
		if _, err := c.Stats(); err != nil {
			r.Close()
			return nil, fmt.Errorf("server: router stats %s: %w", addr, err)
		}
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
// asked for fresh hints, and the endpoint reporting the primary role at the
// highest epoch becomes the write target. The deposed primary typically still
// answers — role primary, old epoch, every request NotPrimary — which is
// exactly why the epoch decides. Endpoints that do not answer (crashed,
// mid-redial) are left as replicas; a failed sweep (no primary found) keeps
// the previous assignment so the caller's retry loop can sweep again.
func (r *Router) rediscover() {
	r.mu.RLock()
	conns := append([]*Conn(nil), r.conns...)
	r.mu.RUnlock()

	var best *Conn
	var bestEpoch uint64
	for _, c := range conns {
		h, err := c.Stats()
		if err != nil {
			continue
		}
		if h.Role == RolePrimary && (best == nil || h.Epoch > bestEpoch) {
			best, bestEpoch = c, h.Epoch
		}
	}
	if best == nil {
		return
	}
	r.mu.Lock()
	r.primary = best
	r.replicas = r.replicas[:0]
	for _, c := range r.conns {
		if c == best {
			continue
		}
		// A non-best endpoint still claiming the primary role is the deposed
		// primary: it answers every request NotPrimary, so it serves no reads
		// either. Keep it out of the read set until a later sweep sees it
		// re-attached (hints role replica).
		if h := c.Hints(); h.Role == RolePrimary {
			continue
		}
		r.replicas = append(r.replicas, c)
	}
	r.mu.Unlock()
}

// Execute routes a read-write procedure to the primary, retrying Overloaded
// and Conflict answers with exponential backoff. Under PolicyAware it first
// checks the primary's last-seen hints and defers one backoff when the
// admission gate is already saturated — backing off before the rejection
// instead of after it. A NotPrimary answer or a lost primary connection
// triggers endpoint rediscovery before the retry: after a supervised
// failover the very same call lands on the promoted node.
func (r *Router) Execute(reactor, procedure string, args ...any) (any, error) {
	backoff := r.opts.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= r.opts.MaxRetries; attempt++ {
		p := r.Primary()
		if r.opts.Policy == PolicyAware {
			if h := p.Hints(); h.GateSaturated() {
				time.Sleep(backoff)
			}
		}
		v, err := p.Execute(reactor, procedure, args...)
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

// Query routes a declarative query. Round-robin rotates over replicas and
// primary, paying an extra round trip to the primary whenever a replica
// answers Stale or refuses a write. Aware scores every endpoint by its hinted
// queue depth and wait p99, drops replicas that are degraded or past the
// freshness bound, and sends the read to the cheapest eligible endpoint —
// falling back to the primary when no replica qualifies.
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

// pickRead chooses the endpoint for one read attempt.
func (r *Router) pickRead() *Conn {
	r.mu.RLock()
	primary := r.primary
	replicas := append([]*Conn(nil), r.replicas...)
	r.mu.RUnlock()
	if len(replicas) == 0 {
		return primary
	}
	if r.opts.Policy == PolicyRoundRobin {
		n := r.rr.Add(1)
		candidates := len(replicas) + 1
		if i := int(n % uint64(candidates)); i < len(replicas) {
			return replicas[i]
		}
		return primary
	}
	n := r.rr.Add(1)
	// A replica's cached hints only refresh when a response arrives from it,
	// so a replica that looks lagging or expensive on stale hints would stay
	// avoided forever. Every probeEvery-th read is routed to a replica in
	// rotation regardless of its hints: if it is genuinely behind, the server
	// answers Stale (freshness is enforced there regardless), the retry lands
	// on the primary, and the refused response carries fresh hints — one
	// extra round trip buys the hint cache its truth.
	const probeEvery = 16
	if n%probeEvery == 0 {
		return replicas[int(n/probeEvery)%len(replicas)]
	}
	candidates := make([]*Conn, 0, len(replicas)+1)
	candidates = append(candidates, primary)
	for _, c := range replicas {
		h := c.Hints()
		if h.Degraded {
			continue
		}
		if r.opts.MaxLagRecords > 0 && h.LagRecords > r.opts.MaxLagRecords {
			continue
		}
		candidates = append(candidates, c)
	}
	// Scan from a rotating offset so equal scores spread over the eligible
	// endpoints instead of herding onto the first one (hints only refresh on
	// responses, so an idle endpoint's score is sticky).
	start := int(n) % len(candidates)
	best := candidates[start]
	bestScore := hintScore(best.Hints())
	for i := 1; i < len(candidates); i++ {
		c := candidates[(start+i)%len(candidates)]
		if s := hintScore(c.Hints()); s < bestScore {
			best, bestScore = c, s
		}
	}
	return best
}

// hintScore prices an endpoint for a read: its worst queue-wait p99 over the
// server's last hint-refresh interval, in microseconds, plus a
// per-queued-transaction penalty so a deep queue costs even before its wait
// window closes.
func hintScore(h LoadHints) uint64 {
	score := h.MaxWaitP99Micros()
	for _, e := range h.Executors {
		score += 25 * uint64(e.Depth+e.InFlight)
	}
	return score
}
