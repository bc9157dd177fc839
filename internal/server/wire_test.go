package server

import (
	"bytes"
	"encoding/hex"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"reactdb/internal/core"
	"reactdb/internal/engine"
	"reactdb/internal/rel"
)

// goldenHints, goldenExecute and goldenQuery are the inputs behind the golden
// frames below, and seeds of the fuzzers.
var goldenHints = LoadHints{
	Role: RoleReplica, Degraded: true, LagRecords: 17, Epoch: 3, Err: "mirror write: disk on fire",
	Executors: []ExecutorHint{
		{Container: 0, Executor: 1, Depth: 3, InFlight: 2, EffectiveDepth: 8, WaitP99Micros: 950},
		{Container: 1, Executor: 0, Depth: 0, InFlight: 0, EffectiveDepth: 64, WaitP99Micros: 0},
	},
}

func goldenExecute() *executeReq {
	return &executeReq{ID: 7, MaxLagRecords: 4096, Reactor: "cust-000042", Procedure: "deposit_checking",
		Args: []any{1.5, int64(-3), "x", true, nil, []byte{1, 2}, 5, []string{"a", "bc"},
			rel.Row{int64(1), "r"}, []rel.Row{{int64(2)}, {false}}, []any{int64(9), nil}}}
}

func goldenQuery() *rel.Query {
	return rel.NewQuery().
		From("o", "orders", "shop-1", "shop-2").
		From("c", "custs", "shop-1").
		Where("o", "branch", rel.Eq, "north").
		Where("o", "total", rel.Ge, 10.5).
		Join("o", "cust", "c", "cust_id").
		GroupBy("o.branch").
		Sum("o.total", "sum_total").
		Count("n").
		OrderBy("sum_total", true).
		Limit(3)
}

// TestWireBytesGolden holds the wire format still: one frame of every kind,
// encoded by the append-style encoder, must equal byte for byte what the
// allocating writeFrame/encode pair produced for the same input before it was
// replaced (hex captured from that code). protocolVersion is 1 on both sides
// of that change, so any difference here is a protocol break.
func TestWireBytesGolden(t *testing.T) {
	must := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return b
	}
	hints := appendHints(nil, &goldenHints)
	execute := goldenExecute()
	query := queryReq{ID: 8, MaxLagRecords: 16, Query: goldenQuery()}
	value := resultMsg{ID: 7, Status: statusOK, Kind: payloadValue, Value: 2e9}
	rows := resultMsg{ID: 8, Status: statusOK, Kind: payloadQuery, Result: &rel.Result{
		Columns: []string{"k", "v"}, Rows: []rel.Row{{int64(1), "a"}, {int64(2), "b"}},
		JoinOrder: []string{"s"}, AccessPaths: map[string]string{"s": "scan"}}}
	conflict := resultMsg{ID: 10, Status: statusConflict, ErrMsg: engine.ErrConflict.Error()}

	for _, tc := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"execute", must(execute.appendFrame(nil)),
			"540000003d879f6c030780200b637573742d303030303432106465706f7369745f636865636b696e670b03000000000000f83f010504017805010006020102020a070201610262630802010204017209020101040105000a02011200"},
		{"query", must(query.appendFrame(nil)),
			"93000000d940b94b04081002016f066f7264657273020673686f702d310673686f702d320163056375737473010673686f702d3102016f066272616e63680004056e6f727468016f05746f74616c0503000000000000254001016f0463757374016307637573745f696401086f2e6272616e63680201076f2e746f74616c0973756d5f746f74616c0000016e00010973756d5f746f74616c010300"},
		{"stats", appendIDFrame(nil, frameStats, 9),
			"020000001e5e72450509"},
		{"result-value", must(value.appendFrame(nil, hints)),
			"3b000000ff5a4dc706070000010111031a6d6972726f722077726974653a206469736b206f6e2066697265020001030208b60701000000400001030000000065cddd41"},
		{"result-query", must(rows.appendFrame(nil, hints)),
			"4f000000e51f755706080000010111031a6d6972726f722077726974653a206469736b206f6e2066697265020001030208b6070100000040000202016b017602020102040161020104040162010173010173047363616e"},
		{"result-error", must(conflict.appendFrame(nil, appendHints(nil, &LoadHints{Role: RolePrimary, Epoch: 1}))),
			"4400000086b0f701060a0239656e67696e653a207472616e73616374696f6e2061626f727465642064756520746f2073657269616c697a6174696f6e20636f6e666c69637400000001000000"},
		{"connect", appendIDFrame(nil, frameConnect, protocolVersion),
			"020000002813c52f0101"},
		{"hello", appendHelloFrame(nil, RoleReplica),
			"03000000ab0cd992020101"},
	} {
		if got := hex.EncodeToString(tc.frame); got != tc.want {
			t.Errorf("%s frame changed:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}

	// Frames appended behind one another in a reused buffer come out the same
	// as frames encoded alone: the header is patched at the frame's own
	// offset, not the buffer's.
	buf := appendIDFrame(nil, frameStats, 9)
	buf, err := execute.appendFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[10:], must(execute.appendFrame(nil))) {
		t.Errorf("a frame appended at an offset differs from the frame encoded alone")
	}
}

// crashExecuteBody is the body of the 13-byte execute frame that used to kill
// the process: id 1, no freshness bound, then a reactor name whose length is
// 2^63-1, which wrapped the decoder's bounds check negative.
var crashExecuteBody = []byte{0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x78}

// hugeCount is a uvarint of 2^63: as an int it is negative, which used to pass
// every "n > len(buf)" check and reach make.
var hugeCount = []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}

// TestDecoderRejectsHostileCounts feeds every decoder that reads a count the
// lengths that used to panic it. Each must report a corrupt frame.
func TestDecoderRejectsHostileCounts(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	okHints := appendHints(nil, &LoadHints{})
	def := core.NewDatabaseDef()

	t.Run("execute/name length 2^63-1", func(t *testing.T) {
		var q executeReq
		if err := q.decode(crashExecuteBody, def); !errors.Is(err, errCorruptFrame) {
			t.Fatalf("decode = %v, want errCorruptFrame", err)
		}
	})
	t.Run("execute/argument count 2^63", func(t *testing.T) {
		var q executeReq
		body := cat([]byte{1, 0, 1, 'r', 1, 'p'}, hugeCount)
		if err := q.decode(body, def); !errors.Is(err, errCorruptFrame) {
			t.Fatalf("decode = %v, want errCorruptFrame", err)
		}
	})
	for name, tag := range map[string]uint8{"strings": valStrings, "rows": valRows, "row": valRow, "list": valList} {
		t.Run("value/"+name+" count 2^63", func(t *testing.T) {
			r := reader{buf: cat([]byte{tag}, hugeCount)}
			if r.value(); !errors.Is(r.err, errCorruptFrame) {
				t.Fatalf("value err = %v, want errCorruptFrame", r.err)
			}
		})
	}
	t.Run("result/executor count 2^63", func(t *testing.T) {
		// status, empty error, then hints: role, degraded, lag, epoch, empty
		// Err, and the hostile executor count. This one kills a client.
		r := reader{buf: cat([]byte{statusOK, 0, 0, 0, 0, 0, 0}, hugeCount)}
		var m resultMsg
		var h LoadHints
		if r.result(&m, &h); !errors.Is(r.err, errCorruptFrame) {
			t.Fatalf("result err = %v, want errCorruptFrame", r.err)
		}
	})
	for i, field := range []string{"columns", "rows", "join order", "access paths"} {
		t.Run("result/query "+field+" count 2^63", func(t *testing.T) {
			body := cat([]byte{statusOK, 0}, okHints, []byte{payloadQuery}, make([]byte, i), hugeCount)
			r := reader{buf: body}
			var m resultMsg
			var h LoadHints
			if r.result(&m, &h); !errors.Is(r.err, errCorruptFrame) {
				t.Fatalf("result err = %v, want errCorruptFrame", r.err)
			}
		})
	}
	for i, field := range []string{"sources", "filters", "joins", "group by", "aggregates", "projection", "ordering"} {
		t.Run("query/"+field+" count 2^63", func(t *testing.T) {
			var q queryReq
			body := cat([]byte{1, 0}, make([]byte, i), hugeCount)
			if err := q.decode(body); !errors.Is(err, errCorruptFrame) {
				t.Fatalf("decode = %v, want errCorruptFrame", err)
			}
		})
	}
	t.Run("query/reactor count 2^63", func(t *testing.T) {
		var q queryReq
		body := cat([]byte{1, 0, 1, 1, 'a', 1, 't'}, hugeCount)
		if err := q.decode(body); !errors.Is(err, errCorruptFrame) {
			t.Fatalf("decode = %v, want errCorruptFrame", err)
		}
	})
}

// TestValueNestingIsCapped: lists may nest maxValueDepth deep and no deeper.
// A million levels used to decode "successfully" in about a second, bounded
// only by the frame size.
func TestValueNestingIsCapped(t *testing.T) {
	nested := func(levels int) []byte {
		// Each level is a one-element list; the innermost holds a nil.
		b := bytes.Repeat([]byte{valList, 1}, levels)
		return append(b, valNil)
	}
	r := reader{buf: nested(maxValueDepth)}
	v := r.value()
	if r.err != nil {
		t.Fatalf("%d levels: %v", maxValueDepth, r.err)
	}
	depth := 0
	for l, ok := v.([]any); ok; l, ok = l[0].([]any) {
		depth++
	}
	if depth != maxValueDepth {
		t.Fatalf("decoded %d levels, want %d", depth, maxValueDepth)
	}
	for _, levels := range []int{maxValueDepth + 1, 1 << 20} {
		r := reader{buf: nested(levels)}
		start := time.Now()
		if r.value(); !errors.Is(r.err, errCorruptFrame) {
			t.Fatalf("%d levels: err = %v, want errCorruptFrame", levels, r.err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("%d levels took %v to refuse", levels, d)
		}
	}
	// Rows nest through the same counter.
	r = reader{buf: append(bytes.Repeat([]byte{valRows, 1, 1}, maxValueDepth+1), valNil)}
	if r.value(); !errors.Is(r.err, errCorruptFrame) {
		t.Fatalf("nested rows: err = %v, want errCorruptFrame", r.err)
	}
}

// TestEncoderRefusesWhatDecoderWould: the nesting cap binds the sender too, at
// exactly the decoder's count — the argument list of an execute is level one.
func TestEncoderRefusesWhatDecoderWould(t *testing.T) {
	for levels := maxValueDepth - 1; levels <= maxValueDepth+1; levels++ {
		buf, err := appendValue(nil, nestedList(levels), 0)
		r := reader{buf: buf}
		if r.value(); (err == nil) != (levels <= maxValueDepth) || (err == nil && r.err != nil) {
			t.Fatalf("value of %d levels: encode = %v, decode = %v", levels, err, r.err)
		}
		q := executeReq{ID: 1, Reactor: "r", Procedure: "p", Args: []any{nestedList(levels)}}
		frame, err := q.appendFrame(nil)
		if (err == nil) != (levels < maxValueDepth) {
			t.Fatalf("arguments of 1+%d levels: encode = %v", levels, err)
		}
		if err != nil {
			if !errors.Is(err, errValueTooDeep) || len(frame) != 0 {
				t.Fatalf("arguments of 1+%d levels: (%d bytes, %v), want nothing and errValueTooDeep", levels, len(frame), err)
			}
			continue
		}
		var back executeReq
		if err := back.decode(frame[9:], core.NewDatabaseDef()); err != nil {
			t.Fatalf("arguments of 1+%d levels encode but do not decode: %v", levels, err)
		}
	}
	rows := []rel.Row{{nestedList(maxValueDepth)}}
	if _, err := appendValue(nil, rows, 0); !errors.Is(err, errValueTooDeep) {
		t.Fatalf("rows holding %d levels: encode = %v, want errValueTooDeep", maxValueDepth, err)
	}
	if _, err := appendQueryResult(nil, &rel.Result{Rows: rows}); !errors.Is(err, errValueTooDeep) {
		t.Fatalf("query result holding %d levels: encode = %v, want errValueTooDeep", maxValueDepth, err)
	}
}

// TestTooDeepValueFailsOnlyItsRequest sends a value nested past the cap in each
// direction. The decoder refuses such a value as corrupt, so the sender must
// not put it on the wire: a too-deep result used to make the client drop the
// connection under every pipelined call, and too-deep arguments were answered
// to request id 0, leaving their caller waiting for good.
func TestTooDeepValueFailsOnlyItsRequest(t *testing.T) {
	db := engine.MustOpen(kvDef(nil, "kv0"), walCfg())
	defer db.Close()
	_, addr := startPrimary(t, db, Options{})
	conn := dial(t, addr)

	// Client to server: refused before anything is written.
	if _, err := conn.Execute("kv0", "echo", nestedList(maxValueDepth)); !errors.Is(err, errValueTooDeep) {
		t.Fatalf("too-deep arguments = %v, want errValueTooDeep", err)
	}
	// Server to client: an error for that request, on a connection that lives.
	_, err := conn.Execute("kv0", "nest", int64(maxValueDepth+1))
	if err == nil || errors.Is(err, ErrConnClosed) || !strings.Contains(err.Error(), errValueTooDeep.Error()) {
		t.Fatalf("too-deep result = %v, want %q on a live connection", err, errValueTooDeep)
	}
	// The deepest values that fit cross in both directions.
	want := []any{nestedList(maxValueDepth - 1)}
	if v, err := conn.Execute("kv0", "echo", want...); err != nil || !reflect.DeepEqual(v, want) {
		t.Fatalf("echo of 1+%d levels = (%v, %v)", maxValueDepth-1, v, err)
	}
	if v, err := conn.Execute("kv0", "nest", int64(maxValueDepth)); err != nil || !reflect.DeepEqual(v, nestedList(maxValueDepth)) {
		t.Fatalf("result of %d levels = (%v, %v)", maxValueDepth, v, err)
	}
}

// TestUndecodableRequestIsAnsweredByID: a peer that does send arguments nested
// too deep — or any body that breaks after its id — gets the error under the
// id it sent, so a caller matching responses by id is not left waiting.
func TestUndecodableRequestIsAnsweredByID(t *testing.T) {
	db := engine.MustOpen(kvDef(nil, "kv0"), walCfg())
	defer db.Close()
	_, addr := startPrimary(t, db, Options{})
	nc, fr := rawSession(t, addr)

	// Id 9, no bound, "kv0", "echo", one argument nested maxValueDepth deep.
	exec := append(beginFrame(nil, frameExecute), 9, 0, 3, 'k', 'v', '0', 4, 'e', 'c', 'h', 'o', 1)
	exec = append(append(exec, bytes.Repeat([]byte{valList, 1}, maxValueDepth)...), valNil)
	exec, _ = endFrame(exec, 0)
	// Id 10, no bound, then a source count with nothing behind it.
	query, _ := endFrame(append(beginFrame(exec, frameQuery), 10, 0, 5), len(exec))
	if _, err := nc.Write(query); err != nil {
		t.Fatalf("write: %v", err)
	}
	answered := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		typ, body, err := fr.next()
		if err != nil || typ != frameResult {
			t.Fatalf("response %d = (%d, %v)", i, typ, err)
		}
		m, _, err := decodeResultBody(body)
		if err != nil || m.Status != statusError || !strings.Contains(m.ErrMsg, "corrupt") {
			t.Fatalf("response %d = (%+v, %v), want a corrupt-frame error status", i, m, err)
		}
		answered[m.ID] = true
	}
	if !answered[9] || !answered[10] {
		t.Fatalf("answered ids %v, want 9 and 10", answered)
	}
}

// rawSession opens a TCP connection to a server and completes the handshake
// by hand, for tests that need to put arbitrary bytes on the wire.
func rawSession(t *testing.T, addr string) (net.Conn, *frameReader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(appendIDFrame(nil, frameConnect, protocolVersion)); err != nil {
		t.Fatalf("connect: %v", err)
	}
	fr := newFrameReader(nc)
	if typ, _, err := fr.next(); err != nil || typ != frameHello {
		t.Fatalf("hello = (%d, %v)", typ, err)
	}
	return nc, fr
}

// TestServerSurvivesCrashFrame puts the exact 13-byte execute frame that used
// to panic a request goroutine — and with it the whole process — on the wire.
// The server must answer it with an error status and go on serving the same
// connection.
func TestServerSurvivesCrashFrame(t *testing.T) {
	db := engine.MustOpen(kvDef(nil, "kv0"), walCfg())
	defer db.Close()
	_, addr := startPrimary(t, db, Options{})
	nc, fr := rawSession(t, addr)

	frame, err := endFrame(append(beginFrame(nil, frameExecute), crashExecuteBody...), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(frame[8:]); got != "030100ffffffffffffffff7f78" {
		t.Fatalf("crash payload = %s", got)
	}
	// The poisoned frame and a healthy stats request behind it, in one write.
	if _, err := nc.Write(appendIDFrame(frame, frameStats, 77)); err != nil {
		t.Fatalf("write: %v", err)
	}
	var sawError, sawStats bool
	for i := 0; i < 2; i++ {
		typ, body, err := fr.next()
		if err != nil || typ != frameResult {
			t.Fatalf("response %d = (%d, %v)", i, typ, err)
		}
		m, _, err := decodeResultBody(body)
		if err != nil {
			t.Fatalf("response %d does not decode: %v", i, err)
		}
		switch {
		case m.ID == 1 && m.Status == statusError && strings.Contains(m.ErrMsg, "corrupt"):
			sawError = true
		case m.ID == 77 && m.Status == statusOK:
			sawStats = true
		default:
			t.Fatalf("unexpected response %+v", m)
		}
	}
	if !sawError || !sawStats {
		t.Fatalf("error answered: %v, stats answered: %v", sawError, sawStats)
	}
}

// TestClientSurvivesCrashFrame is the client's half: a result frame whose
// executor-hint count is 2^63 used to panic Conn.readLoop. Now the call fails
// with ErrConnClosed — the stream cannot be trusted any further — and the
// process lives.
func TestClientSurvivesCrashFrame(t *testing.T) {
	addr := fakeServer(t, func(_ int, nc net.Conn, fr *frameReader) {
		_, body, err := fr.next() // the stats request
		if err != nil {
			return
		}
		r := reader{buf: body}
		bad := appendUvarint(beginFrame(nil, frameResult), r.uvarint())
		bad = append(bad, statusOK, 0, 0, 0, 0, 0, 0)
		bad, _ = endFrame(append(bad, hugeCount...), 0)
		_, _ = nc.Write(bad)
		_, _, _ = fr.next() // hold the socket open until the client drops it
	})

	conn, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Stats(); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("stats over a poisoned stream = %v, want ErrConnClosed", err)
	}
	if _, err := conn.Stats(); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("stats on the dead connection = %v, want ErrConnClosed", err)
	}
}
