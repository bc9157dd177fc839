package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/engine"
	"reactdb/internal/rel"
)

// TestPipelinedFramesSurviveBufferReuse floods two connections with 64
// callers each, mixing executes, queries and stats whose requests and
// responses range from a few bytes to several read buffers. Every layer on
// the path recycles: the client's calls, both sockets' coalescing write
// buffers, both read buffers, the server's requests with their argument
// arrays. Each result is checked against what the same database answers in
// process, so a frame decoded from a buffer that had already moved on, or a
// reply landing in the wrong call, shows up as a wrong answer.
func TestPipelinedFramesSurviveBufferReuse(t *testing.T) {
	const conns, callers, rounds, keys = 2, 64, 40, 32
	reactors := []string{"kv0", "kv1"}
	db := engine.MustOpen(kvDef(nil, reactors...), walCfg())
	defer db.Close()
	for _, r := range reactors {
		for k := 0; k < keys; k++ {
			if _, err := db.Execute(r, "put", int64(k), int64(1000*k+len(r))); err != nil {
				t.Fatalf("seed %s/%d: %v", r, k, err)
			}
		}
	}
	_, addr := startPrimary(t, db, Options{})

	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		conn := dial(t, addr)
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(c, g int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					reactor := reactors[(g+i)%len(reactors)]
					k := int64((7*g + i) % keys)
					var got, want any
					var err, wantErr error
					switch (g + i) % 4 {
					case 0: // a reply as large as the request, sizes all over the place
						size := 8 + (g*911+i*4099)%(3*ioBufSize)
						text := strings.Repeat(fmt.Sprintf("%d.%d.%d;", c, g, i), size/6+1)[:size]
						args := []any{text, int64(g), []byte(text[:size/3]), float64(i) / 3}
						got, err = conn.Execute(reactor, "echo", args...)
						want = args
					case 1:
						got, err = conn.Execute(reactor, "get", k)
						want, wantErr = db.Execute(reactor, "get", k)
					case 2:
						q := func() *rel.Query {
							return rel.NewQuery().From("s", "store", reactor).Where("s", "k", rel.Le, k).OrderBy("s.k", false)
						}
						got, err = conn.Query(q())
						want, wantErr = db.Query(q())
					case 3:
						var h LoadHints
						h, err = conn.Stats()
						got, want = []any{h.Role, len(h.Executors)}, []any{RolePrimary, 2}
					}
					if err != nil || wantErr != nil {
						t.Errorf("conn %d caller %d round %d: wire err %v, in-process err %v", c, g, i, err, wantErr)
						return
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("conn %d caller %d round %d: wire answer differs from the in-process one:\n got  %.200v\n want %.200v", c, g, i, got, want)
						return
					}
				}
			}(c, g)
		}
	}
	wg.Wait()
}

// fakeServer accepts connections one after the other, shakes hands and gives
// each to serve together with its ordinal. It lets a test script exactly what
// comes back over the wire, and when the socket dies.
func fakeServer(t *testing.T, serve func(n int, nc net.Conn, fr *frameReader)) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for n := 0; ; n++ {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			fr := newFrameReader(nc)
			if typ, _, err := fr.next(); err == nil && typ == frameConnect {
				if _, err := nc.Write(appendHelloFrame(nil, RolePrimary)); err == nil {
					serve(n, nc, fr)
				}
			}
			nc.Close()
		}
	}()
	return lis.Addr().String()
}

// TestDroppedPipelineFailsCallsAndDeliversNothingStale kills a socket with 64
// requests in flight on it. Every one of them must fail with ErrConnClosed —
// none may hang, none may be answered. Their calls go back to the pool, the
// connection redials, and the next 64 requests reuse them; the new socket
// then carries, ahead of the real answers, a result for every request that
// died with the old one. Those must reach nobody: each caller has to get the
// echo of its own argument.
func TestDroppedPipelineFailsCallsAndDeliversNothingStale(t *testing.T) {
	const callers = 64
	def := core.NewDatabaseDef()
	hints := appendHints(nil, &LoadHints{})
	var dead []uint64 // ids that died with the first socket
	addr := fakeServer(t, func(n int, nc net.Conn, fr *frameReader) {
		if n == 0 {
			// Swallow the whole pipeline, answer nothing, hang up.
			for len(dead) < callers {
				typ, body, err := fr.next()
				if err != nil || typ != frameExecute {
					t.Errorf("first socket: frame %d = (%d, %v)", len(dead), typ, err)
					return
				}
				var q executeReq
				if err := q.decode(body, def); err != nil {
					t.Errorf("first socket: %v", err)
					return
				}
				dead = append(dead, q.ID)
			}
			return
		}
		var out []byte
		for _, id := range dead {
			stale := resultMsg{ID: id, Status: statusOK, Kind: payloadValue, Value: "stale"}
			out, _ = stale.appendFrame(out, hints)
		}
		if _, err := nc.Write(out); err != nil {
			return
		}
		for {
			typ, body, err := fr.next()
			if err != nil || typ != frameExecute {
				return
			}
			var q executeReq
			if err := q.decode(body, def); err != nil {
				t.Errorf("second socket: %v", err)
				return
			}
			echo := resultMsg{ID: q.ID, Status: statusOK, Kind: payloadValue, Value: q.Args[0]}
			frame, _ := echo.appendFrame(nil, hints)
			if _, err := nc.Write(frame); err != nil {
				return
			}
		}
	})

	conn, err := DialRedial(addr, RedialPolicy{Attempts: 100, Backoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	round := func(name string, check func(g int, v any, err error) error) {
		t.Helper()
		errs := make(chan error, callers)
		for g := 0; g < callers; g++ {
			go func(g int) {
				v, err := conn.Execute("kv0", "echo", fmt.Sprintf("%s-%d", name, g))
				errs <- check(g, v, err)
			}(g)
		}
		for g := 0; g < callers; g++ {
			select {
			case err := <-errs:
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: %d of %d calls never returned", name, callers-g, callers)
			}
		}
	}
	round("dropped", func(g int, v any, err error) error {
		if !errors.Is(err, ErrConnClosed) {
			return fmt.Errorf("call %d on the dying socket = (%v, %v), want ErrConnClosed", g, v, err)
		}
		return nil
	})
	round("redialed", func(g int, v any, err error) error {
		if want := fmt.Sprintf("redialed-%d", g); err != nil || v != want {
			return fmt.Errorf("call %d after the redial = (%v, %v), want %q", g, v, err, want)
		}
		return nil
	})
	if conn.Redials() != 1 {
		t.Fatalf("redials = %d, want 1", conn.Redials())
	}
}

// TestPublishedHintsAreImmutable: the client's read loop decodes the hints of
// every response into one scratch value and publishes a copy only when they
// changed. What Conn.Hints hands out must therefore never change afterwards,
// however many responses stream past — a Router scores endpoints from it on
// other goroutines. HintRefresh is a nanosecond here, so nearly every response
// under load carries different hints and the scratch is rewritten constantly;
// under -race any write into a published value is a reported race as well.
func TestPublishedHintsAreImmutable(t *testing.T) {
	db := engine.MustOpen(kvDef(nil, "kv0", "kv1"), walCfg())
	defer db.Close()
	_, addr := startPrimary(t, db, Options{HintRefresh: time.Nanosecond})
	router, err := NewRouter([]string{addr}, RouterOptions{Policy: PolicyAware})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	defer router.Close()
	conn := router.Primary()

	stop := make(chan struct{})
	var traffic sync.WaitGroup
	for g := 0; g < 16; g++ {
		traffic.Add(1)
		go func(g int) {
			defer traffic.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Router.Execute reads the primary's hints before every send.
				if _, err := router.Execute([]string{"kv0", "kv1"}[g%2], "put", int64(g), int64(i)); err != nil {
					t.Errorf("execute: %v", err)
					return
				}
			}
		}(g)
	}

	distinct := map[string]bool{}
	for i := 0; i < 200; i++ {
		held := conn.Hints()
		before := appendHints(nil, &held)
		time.Sleep(200 * time.Microsecond) // responses stream past meanwhile
		if after := appendHints(nil, &held); !bytes.Equal(before, after) {
			t.Fatalf("hints changed after they were handed out:\n was %x\n now %x", before, after)
		}
		distinct[string(before)] = true
	}
	close(stop)
	traffic.Wait()
	if len(distinct) < 2 {
		t.Fatalf("hints never changed during the run; the test exercised nothing")
	}
}

// TestOversizedResultFailsOnlyItsRequest: a result that does not fit a frame
// used to be written anyway; the client called the stream corrupt, dropped
// the connection and failed every request pipelined on it. Now the server
// answers that one request with an error and the neighbours never notice. A
// result just under the limit still crosses the wire whole.
func TestOversizedResultFailsOnlyItsRequest(t *testing.T) {
	db := engine.MustOpen(kvDef(nil, "kv0"), walCfg())
	defer db.Close()
	if _, err := db.Execute("kv0", "put", int64(1), int64(11)); err != nil {
		t.Fatal(err)
	}
	_, addr := startPrimary(t, db, Options{})
	conn := dial(t, addr)

	var neighbours sync.WaitGroup
	for g := 0; g < 8; g++ {
		neighbours.Add(1)
		go func() {
			defer neighbours.Done()
			for i := 0; i < 50; i++ {
				if v, err := conn.Execute("kv0", "get", int64(1)); err != nil || v != int64(11) {
					t.Errorf("neighbour get = (%v, %v)", v, err)
					return
				}
			}
		}()
	}
	_, err := conn.Execute("kv0", "big", int64(maxFrameSize+1))
	if err == nil || errors.Is(err, ErrConnClosed) || !strings.Contains(err.Error(), "result too large") {
		t.Fatalf("oversized result = %v, want a \"result too large\" error on a live connection", err)
	}
	neighbours.Wait()

	v, err := conn.Execute("kv0", "big", int64(maxFrameSize-1024))
	if b, ok := v.([]byte); err != nil || !ok || len(b) != maxFrameSize-1024 {
		t.Fatalf("result just under the limit = (%T, %v)", v, err)
	}
}

// TestOversizedRequestIsNotSent is the client's half: a request over the
// frame limit is an error to its caller and never reaches the socket, so the
// connection and everything in flight on it carry on.
func TestOversizedRequestIsNotSent(t *testing.T) {
	db := engine.MustOpen(kvDef(nil, "kv0"), walCfg())
	defer db.Close()
	_, addr := startPrimary(t, db, Options{})
	conn := dial(t, addr)

	huge := make([]byte, maxFrameSize)
	if _, err := conn.Execute("kv0", "echo", huge); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversized execute = %v, want errFrameTooLarge", err)
	}
	q := rel.NewQuery().From("s", "store", "kv0").Where("s", "k", rel.Eq, huge)
	if _, err := conn.Query(q); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversized query = %v, want errFrameTooLarge", err)
	}
	if v, err := conn.Execute("kv0", "echo", int64(5)); err != nil || !reflect.DeepEqual(v, []any{int64(5)}) {
		t.Fatalf("execute after the refusals = (%v, %v)", v, err)
	}
}

// stuckWriter is a peer that has stopped reading: every Write blocks until the
// test releases it, then succeeds or fails as told.
type stuckWriter struct {
	release chan struct{}
	err     error

	mu     sync.Mutex
	writes int
	bytes  int
}

func (w *stuckWriter) Write(b []byte) (int, error) {
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes++
	w.bytes += len(b)
	return len(b), w.err
}

// TestFrameWriterBoundsPending: behind a Write that does not return, senders
// may queue maxPending bytes and one frame, and no more — the rest wait, and
// are let through as the flusher catches up or turned away once it fails.
func TestFrameWriterBoundsPending(t *testing.T) {
	const senders = 64
	frame := make([]byte, 3000)
	for _, writeErr := range []error{nil, errors.New("peer gone")} {
		w := &stuckWriter{release: make(chan struct{}), err: writeErr}
		var fw frameWriter
		fw.init(w)
		results := make(chan error, senders)
		for i := 0; i < senders; i++ {
			go func() { results <- fw.write(frame) }()
		}
		// One sender gets stuck in Write; some return with their frame queued,
		// behind it or in the buffer it is writing; the others wait for room.
		returned := 0
		for quiet := false; !quiet; {
			select {
			case err := <-results:
				if err != nil {
					t.Fatalf("queued sender = %v", err)
				}
				returned++
			case <-time.After(200 * time.Millisecond):
				quiet = true
			}
		}
		fw.mu.Lock()
		queued := len(fw.pending)
		fw.mu.Unlock()
		if queued < maxPending || queued >= maxPending+len(frame) {
			t.Fatalf("%d bytes pending behind a stuck Write, want %d and less than a frame more", queued, maxPending)
		}
		if returned < queued/len(frame) || returned >= senders-1 {
			t.Fatalf("%d of %d senders returned with %d frames pending", returned, senders, queued/len(frame))
		}

		close(w.release)
		// The flusher and everyone who waited share the Write's outcome.
		for i := returned; i < senders; i++ {
			if err := <-results; err != writeErr {
				t.Fatalf("sender released by the Write = %v, want %v", err, writeErr)
			}
		}
		w.mu.Lock()
		writes, sent := w.writes, w.bytes
		w.mu.Unlock()
		if writeErr == nil && sent != senders*len(frame) {
			t.Fatalf("after the peer caught up: %d of %d bytes written", sent, senders*len(frame))
		}
		if writeErr != nil && writes != 1 {
			t.Fatalf("after the Write failed: %d writes, want 1", writes)
		}
	}
}

// pipeListener hands a server the far ends of in-memory pipes. A net.Pipe has
// no buffer at all — a Write returns once the peer has read it — so a test
// sees exactly how much a server read and when its responses stopped leaving.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// TestUnreadResponsesStallTheSession: a client that pipelines requests and
// reads nothing back must stop the server reading after about MaxInFlight of
// them, each request holding its slot until its response is on its way. When
// responses coalesce that has to hold for the writer's queue too: a response
// queued without bound behind a blocked flush frees its slot at once, and the
// session goes on executing into a buffer only the peer can drain.
func TestUnreadResponsesStallTheSession(t *testing.T) {
	const (
		window   = 4
		requests = 200
		respSize = maxPending // every response fills the writer's queue by itself
	)
	db := engine.MustOpen(kvDef(nil, "kv0"), walCfg())
	defer db.Close()
	s := NewPrimary(db, Options{MaxInFlight: window})
	lis := &pipeListener{conns: make(chan net.Conn, 1), done: make(chan struct{})}
	go func() { _ = s.Serve(lis) }()
	defer s.Close()
	nc, far := net.Pipe()
	defer nc.Close()
	lis.conns <- far
	if _, err := nc.Write(appendIDFrame(nil, frameConnect, protocolVersion)); err != nil {
		t.Fatalf("connect: %v", err)
	}
	fr := newFrameReader(nc)
	if typ, _, err := fr.next(); err != nil || typ != frameHello {
		t.Fatalf("hello = (%d, %v)", typ, err)
	}

	// One frame a Write: each Write that returns is a frame the session took.
	var taken atomic.Int64
	sendErr := make(chan error, 1)
	go func() {
		var frame []byte
		for id := uint64(1); id <= requests; id++ {
			q := executeReq{ID: id, Reactor: "kv0", Procedure: "big", Args: []any{int64(respSize)}}
			frame, _ = q.appendFrame(frame[:0])
			if _, err := nc.Write(frame); err != nil {
				sendErr <- err
				return
			}
			taken.Add(1)
		}
		sendErr <- nil
	}()

	// At worst the whole first window left in the flusher's one Write, which
	// releases all but the flusher's slot; one response then fills the queue
	// and releases its slot too; the remaining slots wait for room, and the
	// read loop holds one more frame while it waits for a slot.
	const bound = (window - 1) + 1 + window + 1
	var stalledAt int64
	waitCond(t, 10*time.Second, func() bool {
		stalledAt = taken.Load()
		time.Sleep(200 * time.Millisecond)
		return taken.Load() == stalledAt
	})
	if stalledAt > bound {
		t.Fatalf("the server took %d of %d requests from a client that reads nothing, want at most %d",
			stalledAt, requests, bound)
	}

	// The client starts reading: everything drains, nothing is lost.
	seen := map[uint64]bool{}
	for len(seen) < requests {
		typ, body, err := fr.next()
		if err != nil || typ != frameResult {
			t.Fatalf("response %d = (%d, %v)", len(seen), typ, err)
		}
		m, _, err := decodeResultBody(body)
		if b, ok := m.Value.([]byte); err != nil || m.Status != statusOK || !ok || len(b) != respSize || seen[m.ID] {
			t.Fatalf("response %d = (id %d, status %d, %T, %v)", len(seen), m.ID, m.Status, m.Value, err)
		}
		seen[m.ID] = true
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("send: %v", err)
	}
}
