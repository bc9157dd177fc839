// Package server is the network front-end: a dependency-free length-prefixed
// binary wire protocol over TCP (or any net.Conn) exposing an engine primary
// and its replicas to remote clients, with per-connection sessions, request
// pipelining, and backpressure that surfaces engine admission rejections as a
// retryable wire status instead of dropping the connection.
//
// Every frame is CRC-framed exactly like a WAL record — a 4-byte little-endian
// payload length, a 4-byte CRC32 (IEEE) of the payload, then the payload — so
// a torn or corrupted stream is detected, never mis-decoded. The payload's
// first byte is the frame type.
//
// A node's status — its role, failover epoch and, on a replica, its corrected
// replication lag (ReplicaStats.Lag), degraded flag and last replication
// error — is something a client asks for with a stats frame, collected live
// when the request is served; other responses carry only their own answer. A
// replica enforces a read's freshness bound itself, from its live lag. The
// client-side Router asks for status only to find the primary after a
// failover (see router.go).
package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"sync"

	"reactdb/internal/core"
	"reactdb/internal/rel"
)

// Frame types. Connect/hello perform the session handshake; execute, query
// and stats are pipelined requests matched to result frames by request id.
const (
	frameConnect uint8 = 1
	frameHello   uint8 = 2
	frameExecute uint8 = 3
	frameQuery   uint8 = 4
	frameStats   uint8 = 5
	frameResult  uint8 = 6
)

// protocolVersion is echoed in the hello frame; a server refuses a connect
// frame carrying a version it does not speak. Version 2 took the load hints
// out of every result frame and made node status the reply to a stats frame;
// version 3 took the planner-ablation flag out of the query frame.
const protocolVersion = 3

// maxFrameSize bounds a frame's payload so a corrupted length prefix cannot
// make a session allocate unboundedly.
const maxFrameSize = 16 << 20

// Wire-level statuses of a result frame. Overloaded and Conflict are
// retryable on the same node; Stale and ReplicaWrite are retryable on a
// different node (the primary is always eligible).
const (
	statusOK           uint8 = 0
	statusOverloaded   uint8 = 1 // engine admission rejected the transaction
	statusConflict     uint8 = 2 // serialization conflict
	statusStale        uint8 = 3 // replica lag exceeds the request's freshness bound
	statusReplicaWrite uint8 = 4 // write attempted on a replica
	statusError        uint8 = 5 // application or internal error
	statusNotPrimary   uint8 = 6 // node was deposed: fenced by a newer epoch
)

// ErrStale is returned by a client read whose freshness bound the serving
// replica could not meet; the router retries it on the primary.
var ErrStale = errors.New("server: replica lag exceeds the freshness bound")

// ErrNotPrimary is returned by a request served by a node that is no longer
// the primary — its epoch has been fenced by a supervisor promoting a replica.
// The router reacts by rediscovering which endpoint now reports the primary
// role at the highest epoch and re-pointing writes there.
var ErrNotPrimary = errors.New("server: node is not the primary (fenced by a newer epoch)")

// errCorruptFrame reports a CRC or framing violation; the connection is dead.
var errCorruptFrame = errors.New("server: corrupt wire frame")

// errFrameTooLarge is returned instead of sending a frame the peer would
// refuse: it would call the stream corrupt and drop the connection, failing
// every request pipelined on it.
var errFrameTooLarge = errors.New("server: frame exceeds the 16 MiB limit")

// Role is the deployment role a server (and hence a connection) speaks for.
type Role uint8

// Roles.
const (
	RolePrimary Role = 0
	RoleReplica Role = 1
)

func (r Role) String() string {
	if r == RoleReplica {
		return "replica"
	}
	return "primary"
}

// --- framing ----------------------------------------------------------------

// beginFrame starts a frame of the given type at the end of dst: it reserves
// the 9-byte header — payload length, CRC, type — for endFrame to patch once
// the body has been appended behind it.
func beginFrame(dst []byte, typ uint8) []byte {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0, typ)
}

// endFrame completes the frame beginFrame started at offset start of dst by
// filling in the payload's length and CRC. A payload over maxFrameSize is
// refused, and dst comes back cut to start.
func endFrame(dst []byte, start int) ([]byte, error) {
	payload := dst[start+8:]
	if len(payload) > maxFrameSize {
		return dst[:start], errFrameTooLarge
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// appendIDFrame appends a frame whose body is a single uvarint: connect (the
// protocol version) and stats (the request id).
func appendIDFrame(dst []byte, typ uint8, v uint64) []byte {
	start := len(dst)
	dst, _ = endFrame(appendUvarint(beginFrame(dst, typ), v), start)
	return dst
}

// appendHelloFrame appends the server's half of the handshake.
func appendHelloFrame(dst []byte, role Role) []byte {
	start := len(dst)
	dst, _ = endFrame(appendUvarint(append(beginFrame(dst, frameHello), uint8(role)), protocolVersion), start)
	return dst
}

// ioBufSize is the fixed size of a socket's read buffer, and the size up to
// which a frameWriter keeps its buffers between flushes.
const ioBufSize = 16 << 10

// frameReader reads frames through one fixed buffer, so that a single read(2)
// returns every frame the peer's coalesced write delivered.
type frameReader struct {
	br   *bufio.Reader
	skip int // bytes of the previous frame still to discard
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, ioBufSize)}
}

// next returns the next frame's type and body, verifying length and CRC. The
// body aliases the read buffer and is valid until the following call: whoever
// keeps any of it copies. Only a frame larger than the buffer gets an
// allocation of its own.
func (fr *frameReader) next() (uint8, []byte, error) {
	if _, err := fr.br.Discard(fr.skip); err != nil {
		return 0, nil, err
	}
	fr.skip = 0
	header, err := fr.br.Peek(8)
	if err != nil {
		if len(header) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(header[0:4]))
	sum := binary.LittleEndian.Uint32(header[4:8])
	if n < 1 || n > maxFrameSize {
		return 0, nil, errCorruptFrame
	}
	var payload []byte
	if 8+n <= fr.br.Size() {
		frame, err := fr.br.Peek(8 + n)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
		payload, fr.skip = frame[8:], 8+n
	} else {
		// A frame of its own size: grown as its bytes arrive, so that a bare
		// header cannot make the reader reserve the 16 MiB it promises.
		_, _ = fr.br.Discard(8) // buffered: Peek just returned them
		var big bytes.Buffer
		if _, err := big.ReadFrom(io.LimitReader(fr.br, int64(n))); err != nil {
			return 0, nil, err
		}
		if big.Len() < n {
			return 0, nil, io.ErrUnexpectedEOF
		}
		payload = big.Bytes()
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, errCorruptFrame
	}
	return payload[0], payload[1:], nil
}

// frameWriter makes every frame that is ready at the same moment leave in one
// Write, with no timer and no goroutine of its own. A sender appends its frame
// under the mutex; whoever finds no flush running becomes the flusher, swaps
// the buffers and writes until nothing is pending, while later senders append
// behind it and leave. An idle connection therefore sends each frame at once,
// from the sender's goroutine; a busy one sends whatever queued up in a single
// syscall.
//
// What queues behind a running flush is bounded: once maxPending bytes wait, a
// sender blocks until a Write has taken them. A peer that stops reading thus
// stalls its senders — on a server, the requests holding the session's window —
// exactly as it would if each of them wrote to the socket itself.
type frameWriter struct {
	w io.Writer

	mu       sync.Mutex
	room     sync.Cond // signalled when a Write takes pending, and when flushing ends
	pending  []byte    // frames no Write has taken yet
	spare    []byte    // the other buffer, empty
	flushing bool
	err      error // the first Write error; sticky
}

// maxPending is how many bytes may queue behind a running flush before senders
// wait; one frame may take the queue past it.
const maxPending = 4 * ioBufSize

func (fw *frameWriter) init(w io.Writer) {
	fw.w = w
	fw.room.L = &fw.mu
}

// write queues one or more whole frames and, unless a flush is already
// running, flushes. A nil return to a sender that did not flush only means its
// frame is queued; a failed Write is returned to the flusher and to every
// later sender, and it is the flusher's job to tear the connection down.
func (fw *frameWriter) write(frames []byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	for fw.flushing && len(fw.pending) >= maxPending && fw.err == nil {
		fw.room.Wait()
	}
	if fw.err != nil {
		return fw.err
	}
	fw.pending = append(fw.pending, frames...)
	if fw.flushing {
		return nil
	}
	fw.flushing = true
	// Frames become ready in bursts — a commit batch acknowledges its
	// transactions together, one read wakes several callers — but a Write to a
	// socket takes microseconds, too short for the rest of a burst to run into
	// it: measured on two cores with 32 requests in flight, 1.02 frames left
	// per Write. So the flusher first yields the processor once. Senders that
	// are runnable right now append behind it (3.6 frames per Write, a quarter
	// of the syscalls); on an idle connection nothing is runnable and the
	// yield returns in a fraction of a microsecond.
	fw.mu.Unlock()
	runtime.Gosched()
	fw.mu.Lock()
	for len(fw.pending) > 0 && fw.err == nil {
		out := fw.pending
		fw.pending = fw.spare
		fw.room.Broadcast()
		fw.mu.Unlock()
		_, err := fw.w.Write(out)
		fw.mu.Lock()
		if cap(out) > ioBufSize {
			out = nil // one large result must not pin its buffer for good
		}
		fw.spare, fw.err = out[:0], err
	}
	fw.flushing = false
	fw.room.Broadcast()
	return fw.err
}

// --- primitive codec --------------------------------------------------------

// reader is a cursor over a frame body. Decode errors are sticky.
type reader struct {
	buf   []byte
	off   int
	depth int // nesting of the composite value being decoded
	err   error
}

// maxValueDepth bounds how deep lists and rows may nest in one value; without
// it the 16 MiB frame limit is the only bound on the decoder's recursion.
const maxValueDepth = 32

// maxPrealloc is how many elements a decoder reserves on the strength of a
// count alone. A longer collection grows as its elements actually arrive, so
// what a frame makes the decoder allocate stays proportional to its size.
const maxPrealloc = 1024

func (r *reader) fail() {
	if r.err == nil {
		r.err = errCorruptFrame
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *reader) byte() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// count reads the length of a byte string or the element count of a
// collection. Every element takes at least one byte on the wire, so a count
// beyond the bytes that remain is corrupt — which also keeps a hostile count
// from overflowing int, sizing an allocation or driving a loop.
func (r *reader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.buf)-r.off) {
		r.fail()
		return 0
	}
	return int(n)
}

// bytes returns a length-prefixed byte string, aliasing the frame body.
func (r *reader) bytes() []byte {
	n := r.count()
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) string() string { return string(r.bytes()) }

func (r *reader) bool() bool { return r.byte() != 0 }

func (r *reader) float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }
func appendVarint(dst []byte, v int64) []byte   { return binary.AppendVarint(dst, v) }

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// --- value codec ------------------------------------------------------------

// Value tags cover everything procedure arguments and results are made of:
// the canonical row value types, plus the small composites procedures pass
// around (string lists, rows, row lists, and heterogeneous lists).
const (
	valNil uint8 = iota
	valInt64
	valInt
	valFloat64
	valString
	valBool
	valBytes
	valStrings
	valRow
	valRows
	valList
)

// errValueTooDeep is returned instead of encoding a value the peer's decoder
// would refuse as corrupt.
var errValueTooDeep = fmt.Errorf("server: value nests deeper than %d levels", maxValueDepth)

// appendValue appends v, which sits inside depth enclosing lists or rows. The
// depth is counted exactly as reader.valueList counts it, so that whatever
// encodes also decodes.
func appendValue(dst []byte, v any, depth int) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, valNil), nil
	case int64:
		return appendVarint(append(dst, valInt64), x), nil
	case int:
		return appendVarint(append(dst, valInt), int64(x)), nil
	case float64:
		return appendFloat64(append(dst, valFloat64), x), nil
	case string:
		return appendString(append(dst, valString), x), nil
	case bool:
		return appendBool(append(dst, valBool), x), nil
	case []byte:
		return appendBytes(append(dst, valBytes), x), nil
	case []string:
		dst = appendUvarint(append(dst, valStrings), uint64(len(x)))
		for _, s := range x {
			dst = appendString(dst, s)
		}
		return dst, nil
	case rel.Row:
		return appendValueList(append(dst, valRow), x, depth)
	case []rel.Row:
		dst = appendUvarint(append(dst, valRows), uint64(len(x)))
		var err error
		for _, row := range x {
			if dst, err = appendValueList(dst, row, depth); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case []any:
		return appendValueList(append(dst, valList), x, depth)
	default:
		return nil, fmt.Errorf("server: cannot encode %T on the wire", v)
	}
}

func appendValueList(dst []byte, vs []any, depth int) ([]byte, error) {
	if depth++; depth > maxValueDepth {
		return nil, errValueTooDeep
	}
	dst = appendUvarint(dst, uint64(len(vs)))
	var err error
	for _, v := range vs {
		if dst, err = appendValue(dst, v, depth); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func (r *reader) value() any {
	switch r.byte() {
	case valNil:
		return nil
	case valInt64:
		return r.varint()
	case valInt:
		return int(r.varint())
	case valFloat64:
		return r.float64()
	case valString:
		return r.string()
	case valBool:
		return r.bool()
	case valBytes:
		return append([]byte(nil), r.bytes()...)
	case valStrings:
		return r.strings()
	case valRow:
		return rel.Row(r.valueList(nil))
	case valRows:
		return r.rows()
	case valList:
		return r.valueList(nil)
	default:
		r.fail()
		return nil
	}
}

// strings decodes a counted list of strings.
func (r *reader) strings() []string {
	n := r.count()
	out := make([]string, 0, min(n, maxPrealloc))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.string())
	}
	return out
}

// rows decodes a counted list of rows.
func (r *reader) rows() []rel.Row {
	n := r.count()
	out := make([]rel.Row, 0, min(n, maxPrealloc))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, rel.Row(r.valueList(nil)))
	}
	return out
}

// valueList decodes a counted list of values, appending them to dst (a
// caller's recycled array, or nil for a list of its own).
func (r *reader) valueList(dst []any) []any {
	n := r.count()
	if r.depth++; r.depth > maxValueDepth {
		r.fail()
	}
	if dst == nil {
		dst = make([]any, 0, min(n, maxPrealloc))
	}
	for i := 0; i < n && r.err == nil; i++ {
		dst = append(dst, r.value())
	}
	r.depth--
	return dst
}

// --- node status ------------------------------------------------------------

// NodeStatus is a node's answer to a stats frame, collected when the request
// is served. Replicas additionally report their corrected replication lag
// (saturating, never wrapped — see engine.ReplicaShardStats), degraded flag
// and last replication error.
type NodeStatus struct {
	Role       Role
	Degraded   bool
	LagRecords uint64 // max shard lag on a replica; always 0 on a primary
	// Epoch is the node's failover term (engine.Database.Epoch, via the
	// replica's primary for replica servers). After a failover two endpoints
	// may both claim the primary role — the deposed node until its process is
	// recycled, and the promoted one; the highest epoch wins discovery.
	Epoch uint64
	// Err is the node's last replication error (engine.ReplicaStats.Err),
	// empty when healthy or on a primary, so operators see why a replica is
	// degraded without a side channel.
	Err string
}

func appendStatus(dst []byte, st *NodeStatus) []byte {
	dst = append(dst, uint8(st.Role))
	dst = appendBool(dst, st.Degraded)
	dst = appendUvarint(dst, st.LagRecords)
	dst = appendUvarint(dst, st.Epoch)
	return appendString(dst, st.Err)
}

func (r *reader) status(st *NodeStatus) {
	st.Role = Role(r.byte())
	st.Degraded = r.bool()
	st.LagRecords = r.uvarint()
	st.Epoch = r.uvarint()
	st.Err = r.string()
}

// --- request / response bodies ----------------------------------------------

// executeReq is the body of an execute frame. MaxLagRecords is the freshness
// bound for read-only execution on a replica (0 = no bound); primaries are
// always fresh and ignore it.
type executeReq struct {
	ID            uint64
	MaxLagRecords uint64
	Reactor       string
	Procedure     string
	Args          []any
}

// appendFrame appends q to dst as one execute frame.
func (q *executeReq) appendFrame(dst []byte) ([]byte, error) {
	start := len(dst)
	out := beginFrame(dst, frameExecute)
	out = appendUvarint(out, q.ID)
	out = appendUvarint(out, q.MaxLagRecords)
	out = appendString(out, q.Reactor)
	out = appendString(out, q.Procedure)
	out, err := appendValueList(out, q.Args, 0)
	if err != nil {
		return dst, err
	}
	return endFrame(out, start)
}

// decode reads an execute body into q, which a server recycles: the arguments
// land in q.Args' old array, and the two names become def's own strings (see
// core.DatabaseDef.Intern), so a request for a declared procedure allocates
// only what boxing its arguments takes.
func (q *executeReq) decode(body []byte, def *core.DatabaseDef) error {
	r := reader{buf: body}
	q.ID = r.uvarint()
	q.MaxLagRecords = r.uvarint()
	reactor, procedure := r.bytes(), r.bytes()
	q.Args = r.valueList(q.Args[:0])
	if r.err != nil {
		return r.err
	}
	q.Reactor, q.Procedure = def.Intern(reactor, procedure)
	return nil
}

// queryReq is the body of a query frame: a serialized rel.Query plus the
// freshness bound.
type queryReq struct {
	ID            uint64
	MaxLagRecords uint64
	Query         *rel.Query
}

// appendFrame appends q to dst as one query frame.
func (q *queryReq) appendFrame(dst []byte) ([]byte, error) {
	start := len(dst)
	out := beginFrame(dst, frameQuery)
	out = appendUvarint(out, q.ID)
	out = appendUvarint(out, q.MaxLagRecords)
	out, err := appendQuery(out, q.Query)
	if err != nil {
		return dst, err
	}
	return endFrame(out, start)
}

func (q *queryReq) decode(body []byte) error {
	r := reader{buf: body}
	q.ID = r.uvarint()
	q.MaxLagRecords = r.uvarint()
	q.Query = r.query()
	return r.err
}

// Result payload kinds.
const (
	payloadNone   uint8 = 0
	payloadValue  uint8 = 1
	payloadQuery  uint8 = 2
	payloadStatus uint8 = 3
)

// resultMsg is the body of a result frame: the request id it answers, a
// status, an error message for non-OK statuses, and the payload (an execute
// value, a query result or, answering a stats frame, the node's status).
type resultMsg struct {
	ID     uint64
	Status uint8
	ErrMsg string
	Kind   uint8
	Value  any
	Result *rel.Result
	Node   NodeStatus
}

// appendFrame appends m to dst as one result frame.
func (m *resultMsg) appendFrame(dst []byte) ([]byte, error) {
	start := len(dst)
	out := beginFrame(dst, frameResult)
	out = appendUvarint(out, m.ID)
	out = append(out, m.Status)
	out = appendString(out, m.ErrMsg)
	out = append(out, m.Kind)
	var err error
	switch m.Kind {
	case payloadValue:
		out, err = appendValue(out, m.Value, 0)
	case payloadQuery:
		out, err = appendQueryResult(out, m.Result)
	case payloadStatus:
		out = appendStatus(out, &m.Node)
	}
	if err != nil {
		return dst, err
	}
	return endFrame(out, start)
}

// result decodes what follows the id in a result body into m. The client
// reads the id first, to find the call the result belongs to.
func (r *reader) result(m *resultMsg) {
	m.Status = r.byte()
	m.ErrMsg = r.string()
	m.Kind = r.byte()
	switch m.Kind {
	case payloadValue:
		m.Value = r.value()
	case payloadQuery:
		m.Result = r.queryResult()
	case payloadStatus:
		r.status(&m.Node)
	}
}

// appendQueryResult serializes a rel.Result. AccessPaths is encoded as pairs;
// order does not matter to the map on the far side.
func appendQueryResult(dst []byte, res *rel.Result) ([]byte, error) {
	dst = appendUvarint(dst, uint64(len(res.Columns)))
	for _, c := range res.Columns {
		dst = appendString(dst, c)
	}
	dst = appendUvarint(dst, uint64(len(res.Rows)))
	var err error
	for _, row := range res.Rows {
		if dst, err = appendValueList(dst, row, 0); err != nil {
			return nil, err
		}
	}
	dst = appendUvarint(dst, uint64(len(res.JoinOrder)))
	for _, a := range res.JoinOrder {
		dst = appendString(dst, a)
	}
	dst = appendUvarint(dst, uint64(len(res.AccessPaths)))
	for alias, path := range res.AccessPaths {
		dst = appendString(dst, alias)
		dst = appendString(dst, path)
	}
	return dst, nil
}

func (r *reader) queryResult() *rel.Result {
	res := &rel.Result{Columns: r.strings()}
	if rows := r.rows(); len(rows) > 0 {
		res.Rows = rows
	}
	if order := r.strings(); len(order) > 0 {
		res.JoinOrder = order
	}
	n := r.count()
	res.AccessPaths = make(map[string]string, min(n, maxPrealloc))
	for i := 0; i < n && r.err == nil; i++ {
		alias := r.string()
		res.AccessPaths[alias] = r.string()
	}
	return res
}
