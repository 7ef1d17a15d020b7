package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bloc/internal/wire"
)

// The load generator: four minimal anchor clients (hello, rows, fix
// reads, heartbeat echo) on one loopback connection each, fed by a single
// writer that replays pre-encoded rounds on an open-loop schedule or keeps
// a fixed number of rounds in flight.

// Round phases. Only phaseOpen rounds enter the latency, error and
// per-layer statistics; phaseClosed rounds give capacity.
const (
	phaseSetup  uint8 = iota // warm-up rounds inside the setup time
	phaseWarm                // open-loop lead-in, so tags are tracked before measuring
	phaseOpen                // open-loop measured window
	phaseClosed              // closed-loop capacity phase
)

// slot is one offered round. Its round number on the wire is its index
// plus one, so a fix frame names its slot directly.
type slot struct {
	tag     uint16
	idx     int   // corpus round replayed
	phase   uint8 // phase* constant
	omitted bool  // faulty: the silent anchor sent nothing
	garbage bool  // faulty: the garbage anchor's rows were corrupt
	due     int64 // scheduled first-row send (ns since the generator's origin)
	sent    int64 // actual first-row send

	written  atomic.Int64  // last row written
	returned atomic.Int64  // traced in-process runs: estimator returned
	claimed  atomic.Bool   // a receiver took the first fix frame
	fixAt    atomic.Int64  // first fix frame received by any anchor client; 0 = none
	copies   atomic.Int32  // fix frames received over all anchor clients
	tier     atomic.Uint32 // served tier + 1, when the server reported it; 0 = unknown
	x, y     float64       // the fix, written once by the claiming receiver before fixAt
}

type link struct {
	conn net.Conn
	wmu  sync.Mutex // the writer's rows and the reader's heartbeat echoes
}

func (l *link) write(b []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	_, err := l.conn.Write(b)
	return err
}

// loadgen owns one server's anchor connections and every round offered to
// it. Only the writer goroutine (the caller of the offer methods) mutates
// slots below issued; readers touch their atomics.
type loadgen struct {
	c      *corpus
	w      *workload
	origin time.Time
	links  [numAnchors]*link
	slots  []slot
	issued atomic.Int64
	seq    int // next position in the workload's tag schedule
	faults *faultPlan

	closedDone chan int     // closed-loop completions; capacity bounds rounds in flight
	onDeliver  func(i int)  // traced runs: a slot's first fix arrived
	unknown    atomic.Int64 // fix frames naming no offered round
	wg         sync.WaitGroup

	errMu   sync.Mutex
	readErr error // first unexpected reader error; guarded by errMu
}

// closedInflight is the closed-loop concurrency: far below the server's
// overload degrade watermark (half of -fix-queue 64), so serve mode stays
// normal while the fix workers never idle.
const closedInflight = 8

func newLoadgen(c *corpus, w *workload, seed uint64, maxRounds int) *loadgen {
	d := &loadgen{
		c:          c,
		w:          w,
		origin:     time.Now(),
		slots:      make([]slot, maxRounds),
		closedDone: make(chan int, closedInflight),
	}
	if w.faults {
		d.faults = newFaultPlan(seed)
	}
	return d
}

func (d *loadgen) now() int64 { return int64(time.Since(d.origin)) }

// connect dials the server once per anchor and sends each hello.
func (d *loadgen) connect(addr string) error {
	for a := range d.links {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			d.close()
			return fmt.Errorf("anchor %d: dial: %w", a, err)
		}
		hello := &wire.Hello{
			Version:  wire.ProtocolVersion,
			AnchorID: uint8(a),
			Antennas: uint8(d.c.dep.Anchors[0].N),
			Bands:    uint16(d.c.bands),
		}
		if err := wire.Send(conn, hello); err != nil {
			conn.Close()
			d.close()
			return fmt.Errorf("anchor %d: hello: %w", a, err)
		}
		l := &link{conn: conn}
		d.links[a] = l
		d.wg.Add(1)
		go d.read(l)
	}
	return nil
}

// close tears the connections down and waits for every reader.
func (d *loadgen) close() {
	for _, l := range d.links {
		if l != nil {
			l.conn.Close()
		}
	}
	d.wg.Wait()
}

// read consumes server→anchor frames: fixes are matched to their slot,
// heartbeats are echoed unchanged, as internal/anchor does.
func (d *loadgen) read(l *link) {
	defer d.wg.Done()
	br := bufio.NewReader(l.conn)
	frame := make([]byte, 5+64)
	for {
		if _, err := io.ReadFull(br, frame[:5]); err != nil {
			d.noteReadErr(err)
			return
		}
		n := int(binary.LittleEndian.Uint32(frame[:4]))
		if n > 64 {
			d.noteReadErr(fmt.Errorf("server frame of %d bytes", n))
			return
		}
		if _, err := io.ReadFull(br, frame[5:5+n]); err != nil {
			d.noteReadErr(err)
			return
		}
		switch wire.MsgType(frame[4]) {
		case wire.TypeFix:
			f, err := wire.UnmarshalFix(frame[5 : 5+n])
			if err != nil {
				d.noteReadErr(err)
				return
			}
			d.fix(f)
		case wire.TypeHeartbeat:
			if err := l.write(frame[:5+n]); err != nil {
				d.noteReadErr(err)
				return
			}
		}
	}
}

func (d *loadgen) noteReadErr(err error) {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) {
		return
	}
	d.errMu.Lock()
	if d.readErr == nil {
		d.readErr = err
	}
	d.errMu.Unlock()
}

// slotOf returns the slot a (round, tag) pair names, or nil.
func (d *loadgen) slotOf(round uint32, tag uint16) *slot {
	i := int64(round) - 1
	if i < 0 || i >= d.issued.Load() || d.slots[i].tag != tag {
		return nil
	}
	return &d.slots[i]
}

func (d *loadgen) fix(f *wire.Fix) {
	at := d.now()
	s := d.slotOf(f.Round, f.TagID)
	if s == nil {
		d.unknown.Add(1)
		return
	}
	s.copies.Add(1)
	if !s.claimed.CompareAndSwap(false, true) {
		return
	}
	// The fix is written before fixAt publishes it: whoever loads a
	// non-zero fixAt may read x and y.
	s.x, s.y = f.X, f.Y
	s.fixAt.Store(at)
	i := int(f.Round) - 1
	if d.onDeliver != nil {
		d.onDeliver(i)
	}
	if s.phase == phaseClosed {
		d.closedDone <- i
	}
}

// offer sends one round: every anchor's batch for corpus round idx,
// stamped with the slot's round number and the tag.
func (d *loadgen) offer(idx int, tag uint16, phase uint8, due int64) error {
	i := d.issued.Load()
	if int(i) >= len(d.slots) {
		return fmt.Errorf("more than %d rounds offered", len(d.slots))
	}
	s := &d.slots[i]
	s.tag, s.idx, s.phase, s.due = tag, idx, phase, due
	if d.faults != nil && phase != phaseSetup {
		s.garbage, s.omitted = d.faults.next()
		// A round missing an anchor holds its closed-loop slot for the
		// whole round deadline; capacity would then measure the deadline.
		s.omitted = s.omitted && phase != phaseClosed
	}
	d.issued.Store(i + 1)
	r := &d.c.rounds[idx]
	s.sent = d.now()
	for a, l := range d.links {
		b := r.batch[a]
		switch {
		case s.omitted && a == silentAnchor:
			continue
		case s.garbage && a == garbageAnchor:
			b = r.garbage
		}
		d.c.patch(b, uint32(i+1), tag)
		if err := l.write(b); err != nil {
			return fmt.Errorf("anchor %d: send round %d: %w", a, i+1, err)
		}
	}
	s.written.Store(d.now())
	return nil
}

// offerNext sends the workload's next round in tag-schedule order.
func (d *loadgen) offerNext(phase uint8, due int64) error {
	idx, tag := d.w.schedule(d.seq)
	d.seq++
	return d.offer(idx, tag, phase, due)
}

// Setup warm-up: a few tags reported back to back until each is tracked,
// so the lazily built gated-search tables exist before measuring.
const (
	setupTags   = 2
	setupRounds = 5 // per tag; trackedMinFixes is 3
	setupTagID  = 0xFF00
)

// warmUp sends the setup rounds one at a time, each after the previous
// fix arrived.
func (d *loadgen) warmUp() error {
	for r := 0; r < setupRounds; r++ {
		for t := 0; t < setupTags; t++ {
			idx := (t*max(d.w.steps, setupRounds) + r) % len(d.c.rounds)
			if err := d.offer(idx, setupTagID+uint16(t), phaseSetup, d.now()); err != nil {
				return err
			}
			if err := d.wait(d.issued.Load(), 5*time.Second); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// wait blocks until every slot below n has its fix on every anchor
// client, or the timeout passes.
func (d *loadgen) wait(n int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i := int64(0); i < n; {
		s := &d.slots[i]
		if s.fixAt.Load() != 0 && s.copies.Load() >= numAnchors {
			i++
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("round %d (tag %d) has no fix after %v", i+1, s.tag, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// window is a measured interval in generator time, cut into equal segments.
// Per-segment figures are reduced by their median, so one scheduler or
// hypervisor hiccup moves one segment, not the run.
type window struct {
	start, end int64
	segments   int
}

// edge returns the time segment edge k (0..segments) falls on.
func (w window) edge(k int) int64 {
	return w.start + int64(k)*(w.end-w.start)/int64(w.segments)
}

// segment returns which segment t falls in, or -1 outside the window.
func (w window) segment(t int64) int {
	if t < w.start || t >= w.end {
		return -1
	}
	return int((t - w.start) * int64(w.segments) / (w.end - w.start))
}

// openLoop offers rounds at the workload's fixed rate: a lead-in of warm,
// then the measured window of the given segments. Rounds are timed from
// their scheduled send, so a stalled writer or server shows as latency
// instead of a lower rate. at, when set, runs once at every segment edge
// (CPU accounting).
func (d *loadgen) openLoop(warm, measure time.Duration, segments int, at func(edge int)) (window, error) {
	period := time.Duration(float64(time.Second) / d.w.rate)
	t0 := d.now() + int64(time.Millisecond)
	win := window{start: t0 + int64(warm), end: t0 + int64(warm+measure), segments: segments}
	next := 0 // next edge to report
	cross := func(now int64) {
		for ; next <= segments && win.edge(next) <= now; next++ {
			if at != nil {
				at(next)
			}
		}
	}
	for j := int64(0); ; j++ {
		due := t0 + j*int64(period)
		if due >= win.end {
			break
		}
		if wait := due - d.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		cross(due)
		phase := phaseWarm
		if due >= win.start {
			phase = phaseOpen
		}
		if err := d.offerNext(phase, due); err != nil {
			return win, err
		}
	}
	if wait := win.end - d.now(); wait > 0 {
		time.Sleep(time.Duration(wait))
	}
	cross(win.end)
	return win, nil
}

// closedLoop keeps closedInflight rounds outstanding for dur, sending the
// next round as each fix arrives. The returned window covers the phase.
func (d *loadgen) closedLoop(dur time.Duration, segments int) (window, error) {
	win := window{start: d.now(), segments: segments}
	win.end = win.start + int64(dur)
	for k := 0; k < closedInflight; k++ {
		if err := d.offerNext(phaseClosed, d.now()); err != nil {
			return win, err
		}
	}
	timer := time.NewTimer(dur)
	defer timer.Stop()
	for {
		select {
		case <-d.closedDone:
			if err := d.offerNext(phaseClosed, d.now()); err != nil {
				return win, err
			}
		case <-timer.C:
			return win, nil
		}
	}
}

// err returns the first unexpected reader or protocol error.
func (d *loadgen) err() error {
	d.errMu.Lock()
	err := d.readErr
	d.errMu.Unlock()
	if err != nil {
		return err
	}
	if n := d.unknown.Load(); n > 0 {
		return fmt.Errorf("%d fix frames name a round that was never offered", n)
	}
	return nil
}
