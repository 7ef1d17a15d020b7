package locserver

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"bloc/internal/wire"
)

// Downtime TCP ingress (DESIGN.md §15/§16). Each cell's TCP listener is
// owned by the Fleet and outlives cell incarnations: a live cell server
// accepts through a listenerLease, and while the cell is down — its
// server closed, the supervisor backing off — the fleet itself accepts
// on the same socket and feeds the rows into the fallback collector. A
// TCP anchor daemon therefore keeps one stable address per cell across
// restarts, and its rounds during a down window become flagged coarse
// fallback fixes instead of connection-refused silence.

// revokeDeadline is the fixed past instant a revoked lease pins the
// listener deadline to; any constant in the past works, and a fixed one
// keeps revocation independent of the wall clock.
var revokeDeadline = time.Unix(1, 0)

// listenerLease hands one cell-server incarnation temporary use of the
// fleet's persistent TCP listener. Close revokes the lease instead of
// closing the socket: the deadline is pinned to the past, which
// unblocks the incarnation's Accept (and fails every later one) while
// the listener — and the anchors' dialable address — survives for the
// next incarnation. Safe because Server.Close waits for its acceptLoop
// to exit before returning, so a revoked lease is never Accepted on
// again once a new lease is issued.
type listenerLease struct {
	tl *net.TCPListener
}

// newListenerLease issues a fresh lease, clearing any prior revocation.
func newListenerLease(tl *net.TCPListener) *listenerLease {
	tl.SetDeadline(time.Time{})
	return &listenerLease{tl: tl}
}

func (l *listenerLease) Accept() (net.Conn, error) { return l.tl.Accept() }
func (l *listenerLease) Addr() net.Addr            { return l.tl.Addr() }
func (l *listenerLease) Close() error              { return l.tl.SetDeadline(revokeDeadline) }

// cellIngress is the fleet-side acceptor that serves a cell's TCP
// anchors while the cell is down. Rows it reads flow into the fallback
// collector exactly like in-process rows for a down cell do, so
// complete rounds still yield neighbor-served fallback fixes. Fixes are
// not broadcast back to the anchors — the fallback plane delivers
// through Fleet.OnFix only, matching the in-process path.
type cellIngress struct {
	f *Fleet
	c *cell

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // guarded by mu
	closed bool                  // guarded by mu
	wg     sync.WaitGroup
}

// startIngress begins accepting on a down cell's persistent listener.
// Caller must have closed the cell's server first (its acceptLoop has
// exited; Server.Close waits for it).
func (f *Fleet) startIngress(c *cell) *cellIngress {
	ing := &cellIngress{f: f, c: c, conns: make(map[net.Conn]struct{})}
	c.fln.SetDeadline(time.Time{}) // clear the dead incarnation's revocation
	ing.wg.Add(1)
	go ing.acceptLoop()
	return ing
}

// stop revokes the listener, closes every ingress connection and waits
// for the reader goroutines. After stop the listener is quiescent and
// can be leased to the cell's next incarnation.
func (ing *cellIngress) stop() {
	ing.mu.Lock()
	ing.closed = true
	conns := make([]net.Conn, 0, len(ing.conns))
	for c := range ing.conns {
		conns = append(conns, c)
	}
	ing.mu.Unlock()
	ing.c.fln.SetDeadline(revokeDeadline)
	for _, c := range conns {
		c.Close()
	}
	ing.wg.Wait()
}

func (ing *cellIngress) acceptLoop() {
	defer ing.wg.Done()
	for {
		conn, err := ing.c.fln.Accept()
		if err != nil {
			return // revoked by stop, or the fleet closed the listener
		}
		ing.mu.Lock()
		if ing.closed {
			ing.mu.Unlock()
			conn.Close()
			return
		}
		ing.conns[conn] = struct{}{}
		ing.mu.Unlock()
		ing.wg.Add(1)
		go ing.serveConn(conn)
	}
}

// serveConn validates one anchor connection against the cell template —
// the same hello contract Server.handle enforces, including the
// spoofed-row check — and feeds its CSI rows to the fallback collector.
func (ing *cellIngress) serveConn(conn net.Conn) {
	defer ing.wg.Done()
	defer func() {
		conn.Close()
		ing.mu.Lock()
		delete(ing.conns, conn)
		ing.mu.Unlock()
	}()
	f, cellIdx := ing.f, ing.c.idx
	br := bufio.NewReader(conn) // one buffer for every frame, as in Server.handle
	msg, err := wire.Receive(br)
	if err != nil {
		return
	}
	hello, ok := msg.(*wire.Hello)
	if !ok || hello.Version != wire.ProtocolVersion {
		f.log.Warn("downtime ingress: bad hello", "cell", cellIdx, "remote", conn.RemoteAddr())
		return
	}
	if int(hello.AnchorID) >= f.cfg.Cell.Anchors || int(hello.Antennas) != f.cfg.Cell.Antennas ||
		int(hello.Bands) != len(f.cfg.Cell.Bands) {
		f.log.Warn("downtime ingress: hello does not match deployment",
			"cell", cellIdx, "hello", fmt.Sprintf("%+v", hello))
		return
	}
	for {
		msg, err := wire.Receive(br)
		if err != nil {
			return // EOF, framing garbage, or stop() closed the conn
		}
		switch m := msg.(type) {
		case *wire.CSIRow:
			if m.AnchorID != hello.AnchorID {
				f.log.Warn("downtime ingress: anchor id spoofed in row",
					"cell", cellIdx, "hello", hello.AnchorID, "row", m.AnchorID)
				continue
			}
			f.rt.noteTag(m.TagID, cellIdx)
			if snap, done := f.fb.add(cellIdx, m); done {
				f.deliverFallback(cellIdx, m.TagID, m.Round, snap)
			}
		case *wire.Heartbeat:
			// Anchors may echo stale probes from the dead incarnation;
			// harmless.
		default:
			f.log.Warn("downtime ingress: unexpected message type",
				"cell", cellIdx, "msg", fmt.Sprintf("%T", msg))
		}
	}
}
