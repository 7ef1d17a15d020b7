package locserver

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bloc/internal/ble"
	"bloc/internal/csi"
	"bloc/internal/geom"
	"bloc/internal/wire"
)

// Both anchor read loops — Server.handle and the fleet's downtime
// ingress — must read frames through one buffered reader per
// connection. The tests below count the Read calls on the server's end
// of a net.Pipe, so the count is exact: a hello and a 37-row batch sent
// in one Write must cost fewer reads than frames. Unbuffered, every
// frame costs two (header, then payload).

// readCountConn counts Read calls on the connection it wraps.
type readCountConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *readCountConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// pipeListener accepts one prepared connection, then blocks until Close.
type pipeListener struct {
	conn   chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener(c net.Conn) *pipeListener {
	l := &pipeListener{conn: make(chan net.Conn, 1), closed: make(chan struct{})}
	l.conn <- c
	return l
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conn:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// batchCell is the paper deployment's cell shape: 4 anchors of 4
// antennas on the 37 data channels.
func batchCell() Config {
	return Config{
		Anchors: 4, Antennas: 4, Bands: ble.DataChannels(),
		OnSnapshot: func(RoundInfo, *csi.Snapshot) (geom.Point, error) { return geom.Pt(0, 0), nil },
		Logger:     quietLogger(),
	}
}

// batchTag and batchRound name the round anchorBatch's rows belong to.
const (
	batchTag   = 9
	batchRound = 5
)

// anchorBatch renders anchor 0's hello and one round's rows, one per
// band, as the bytes of a single Write; frames counts them.
func anchorBatch(t *testing.T, cfg Config) (batch []byte, frames int) {
	t.Helper()
	var buf bytes.Buffer
	msgs := []any{&wire.Hello{
		Version: wire.ProtocolVersion, AnchorID: 0,
		Antennas: uint8(cfg.Antennas), Bands: uint16(len(cfg.Bands)),
	}}
	for k := range cfg.Bands {
		tones := make([]complex128, cfg.Antennas)
		for j := range tones {
			tones[j] = complex(float64(k+1), float64(j+1))
		}
		msgs = append(msgs, &wire.CSIRow{
			Round: batchRound, TagID: batchTag, AnchorID: 0, BandIdx: uint16(k),
			Tag: tones, Master: 1,
		})
	}
	for _, m := range msgs {
		if err := wire.Send(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), len(msgs)
}

// sendBatch writes the batch in one Write and closes the anchor's end.
func sendBatch(t *testing.T, anchorEnd net.Conn, batch []byte) {
	t.Helper()
	if _, err := anchorEnd.Write(batch); err != nil {
		t.Fatal(err)
	}
	anchorEnd.Close()
}

func TestServerBuffersFrameReads(t *testing.T) {
	cfg := batchCell()
	srvEnd, anchorEnd := net.Pipe()
	counted := &readCountConn{Conn: srvEnd}
	srv, err := NewWithListener(newPipeListener(counted), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	batch, frames := anchorBatch(t, cfg)
	sendBatch(t, anchorEnd, batch)
	// The handler deregisters its connection once it has read to EOF.
	chaosAwait(t, 5*time.Second, "anchor handler exit", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 0
	})
	srv.mu.Lock()
	pr := srv.rounds[roundKey{tag: batchTag, round: batchRound}]
	got := 0
	if pr != nil {
		got = pr.got
	}
	srv.mu.Unlock()
	if got != len(cfg.Bands) {
		t.Fatalf("round holds %d rows, want %d", got, len(cfg.Bands))
	}
	if reads := counted.reads.Load(); reads >= int64(frames) {
		t.Fatalf("%d Read calls for %d frames written at once; want fewer reads than frames", reads, frames)
	}
}

func TestIngressBuffersFrameReads(t *testing.T) {
	cfg := batchCell()
	// A bare fleet: the downtime ingress only reads the cell template,
	// the router and the fallback collector.
	f := &Fleet{
		cfg: FleetConfig{Cells: 1, Cell: cfg},
		log: quietLogger(),
		rt:  newRouter(1, cfg.Anchors),
		fb:  newFallbackCollector(cfg.Anchors, cfg.Antennas, cfg.Bands),
	}
	ing := &cellIngress{f: f, c: &cell{idx: 0}, conns: make(map[net.Conn]struct{})}
	srvEnd, anchorEnd := net.Pipe()
	counted := &readCountConn{Conn: srvEnd}
	ing.conns[counted] = struct{}{}
	ing.wg.Add(1)
	go ing.serveConn(counted)
	batch, frames := anchorBatch(t, cfg)
	sendBatch(t, anchorEnd, batch)
	ing.wg.Wait()
	f.fb.mu.Lock()
	b := f.fb.buckets[fbKey{cell: 0, tag: batchTag, round: batchRound}]
	got := 0
	if b != nil {
		got = b.got
	}
	f.fb.mu.Unlock()
	if got != len(cfg.Bands) {
		t.Fatalf("fallback bucket holds %d rows, want %d", got, len(cfg.Bands))
	}
	if reads := counted.reads.Load(); reads >= int64(frames) {
		t.Fatalf("%d Read calls for %d frames written at once; want fewer reads than frames", reads, frames)
	}
}
