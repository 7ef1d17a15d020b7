package locserver

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"bloc/internal/anchor"
	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/faultnet"
	"bloc/internal/geom"
	"bloc/internal/testbed"
	"bloc/internal/wire"
)

// startTestbedWith is startTestbed with a config hook, for tests that
// enable deadlines, quorum or heartbeats.
func startTestbedWith(t *testing.T, seed uint64, mutate func(*Config),
	onSnap func(RoundInfo, *csi.Snapshot) (geom.Point, error)) (*Server, []*anchor.Daemon) {
	t.Helper()
	dep, err := testbed.Paper(seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Anchors:    len(dep.Anchors),
		Antennas:   dep.Anchors[0].N,
		Bands:      dep.Bands,
		OnSnapshot: onSnap,
		Logger:     quietLogger(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	daemons := make([]*anchor.Daemon, len(dep.Anchors))
	for i := range daemons {
		depI, err := testbed.Paper(seed)
		if err != nil {
			t.Fatal(err)
		}
		d, err := anchor.New(i, depI, quietLogger())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Connect(srv.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		daemons[i] = d
	}
	return srv, daemons
}

// TestQuorumCompletesPartialRound is the headline acceptance scenario:
// four anchors with quorum three, one anchor silenced mid-round (it
// delivers only a prefix of its bands), and the round must still produce
// an accurate fix within the deadline.
func TestQuorumCompletesPartialRound(t *testing.T) {
	const seed = 71
	const deadline = 400 * time.Millisecond
	dep, err := testbed.Paper(seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var gotSnap *csi.Snapshot
	srv, daemons := startTestbedWith(t, seed, func(c *Config) {
		c.RoundDeadline = deadline
		c.MinAnchors = 3
	}, func(info RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
		mu.Lock()
		gotSnap = snap
		mu.Unlock()
		res, err := eng.LocateOpts(snap, core.LocateOptions{Ref: info.Ref})
		if err != nil {
			return geom.Point{}, err
		}
		return res.Estimate, nil
	})

	// Anchors 0..2 report fully; anchor 3 is "silenced mid-round": a raw
	// client sends its hello and the first 8 bands, then goes quiet.
	tag := geom.Pt(0.6, -0.4)
	daemons[3].Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.Send(conn, &wire.Hello{
		Version: wire.ProtocolVersion, AnchorID: 3,
		Antennas: uint8(dep.Anchors[0].N), Bands: uint16(len(dep.Bands)),
	}); err != nil {
		t.Fatal(err)
	}
	snap3 := dep.Fork(1).Sounding(tag)
	for b := 0; b < 8; b++ {
		if err := wire.Send(conn, &wire.CSIRow{
			Round: 1, AnchorID: 3, BandIdx: uint16(b),
			Tag: snap3.Tag[b][3], Master: snap3.Master[b][3],
		}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	for _, d := range daemons[:3] {
		if err := d.MeasureAndReport(0, 1, tag); err != nil {
			t.Fatal(err)
		}
	}

	select {
	case fix := <-srv.Fixes():
		if elapsed := time.Since(start); elapsed > deadline+2*time.Second {
			t.Errorf("fix took %v, deadline %v", elapsed, deadline)
		}
		if est := geom.Pt(fix.X, fix.Y); est.Dist(tag) > 2.0 {
			t.Errorf("partial-round fix %v too far from tag %v", est, tag)
		}
	case <-time.After(deadline + 5*time.Second):
		t.Fatal("partial round never completed")
	}
	st := srv.Stats()
	if st.Partial != 1 || st.Full != 0 || st.Evicted != 0 {
		t.Errorf("stats = %+v, want exactly one partial completion", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if gotSnap.Complete() {
		t.Error("partial round delivered a complete snapshot")
	}
	if got := gotSnap.PresentBands(3); got != 8 {
		t.Errorf("silenced anchor contributed %d usable bands, want 8", got)
	}
	if got := len(gotSnap.PresentAnchors(1)); got != 4 {
		t.Errorf("present anchors = %d, want 4 (anchor 3 partially)", got)
	}
}

// TestQuorumEvictsStarvedRound verifies a round below quorum is evicted at
// the deadline — no fix, no resurrection by stragglers — while later
// rounds proceed normally.
func TestQuorumEvictsStarvedRound(t *testing.T) {
	const deadline = 250 * time.Millisecond
	srv, daemons := startTestbedWith(t, 72, func(c *Config) {
		c.RoundDeadline = deadline
		c.MinAnchors = 3
	}, func(RoundInfo, *csi.Snapshot) (geom.Point, error) {
		return geom.Pt(0, 0), nil
	})
	tag := geom.Pt(0.3, 0.3)
	// Only two of four anchors report round 1: below the quorum of three.
	for _, d := range daemons[:2] {
		if err := d.MeasureAndReport(0, 1, tag); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case f := <-srv.Fixes():
		t.Fatalf("starved round completed: %+v", f)
	case <-time.After(deadline + 500*time.Millisecond):
	}
	if st := srv.Stats(); st.Evicted != 1 {
		t.Errorf("stats = %+v, want one eviction", st)
	}
	// Stragglers for the evicted round are tombstoned, not resurrected.
	for _, d := range daemons[2:] {
		if err := d.MeasureAndReport(0, 1, tag); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case f := <-srv.Fixes():
		t.Fatalf("evicted round resurrected by stragglers: %+v", f)
	case <-time.After(300 * time.Millisecond):
	}
	// A fresh round with full participation completes immediately.
	for _, d := range daemons {
		if err := d.MeasureAndReport(0, 2, tag); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case fix := <-srv.Fixes():
		if fix.Round != 2 {
			t.Errorf("completed round %d, want 2", fix.Round)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("round after eviction never completed")
	}
	if st := srv.Stats(); st.Full != 1 || st.Evicted != 1 {
		t.Errorf("stats = %+v, want Full=1 Evicted=1", st)
	}
}

// TestGarbageFramesDropClientNotServer pushes framing garbage through a
// live authenticated connection: the malformed client must be dropped
// (never a panic or a wedged server) and legitimate rounds must keep
// completing.
func TestGarbageFramesDropClientNotServer(t *testing.T) {
	const seed = 73
	srv, daemons := startTestbedWith(t, seed, nil,
		func(RoundInfo, *csi.Snapshot) (geom.Point, error) {
			return geom.Pt(0, 0), nil
		})
	dep, _ := testbed.Paper(seed)
	hello := &wire.Hello{
		Version: wire.ProtocolVersion, AnchorID: 1,
		Antennas: uint8(dep.Anchors[0].N), Bands: uint16(len(dep.Bands)),
	}

	// Garbage corpus: raw noise, an oversized length prefix, a declared
	// length with a truncated body, an unknown frame type, and a valid
	// header with a corrupt CSI payload.
	oversize := make([]byte, 4)
	binary.LittleEndian.PutUint32(oversize, wire.MaxFrameSize+1)
	truncated := make([]byte, 4, 6)
	binary.LittleEndian.PutUint32(truncated, 64)
	truncated = append(truncated, byte(wire.TypeCSIRow), 0xAB)
	unknownType := []byte{3, 0, 0, 0, 0xEE, 1, 2, 3}
	badPayload := []byte{2, 0, 0, 0, byte(wire.TypeCSIRow), 0xFF}
	corpus := [][]byte{
		[]byte("\xde\xad\xbe\xefGET / HTTP/1.1\r\n\r\n"),
		oversize,
		truncated,
		unknownType,
		badPayload,
	}
	for i, garbage := range corpus {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.Send(conn, hello); err != nil {
			t.Fatal(err)
		}
		conn.Write(garbage)
		// Decodable garbage gets the client hung up promptly; a truncated
		// frame legitimately blocks the server's read until we give up and
		// close, so the drain deadline is short.
		conn.SetReadDeadline(time.Now().Add(1 * time.Second))
		buf := make([]byte, 64)
		for {
			if _, err := conn.Read(buf); err != nil {
				break
			}
		}
		conn.Close()

		// And a legitimate round still flows end to end.
		round := uint32(i + 1)
		for _, d := range daemons {
			if err := d.MeasureAndReport(0, round, geom.Pt(0.1, 0.1)); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case fix := <-srv.Fixes():
			if fix.Round != round {
				t.Errorf("case %d: completed round %d, want %d", i, fix.Round, round)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("case %d: round wedged after garbage", i)
		}
	}
}

// TestHeartbeatPrunesDeadConnection verifies an anchor that stops echoing
// probes is pruned, while live anchors survive arbitrarily many probes.
func TestHeartbeatPrunesDeadConnection(t *testing.T) {
	const seed = 74
	srv, daemons := startTestbedWith(t, seed, func(c *Config) {
		c.HeartbeatInterval = 50 * time.Millisecond
	}, func(RoundInfo, *csi.Snapshot) (geom.Point, error) {
		return geom.Pt(0, 0), nil
	})
	srv.mu.Lock()
	srv.hbMisses = 2
	srv.mu.Unlock()
	// A raw client that completes its hello but never echoes heartbeats.
	dep, _ := testbed.Paper(seed)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.Send(conn, &wire.Hello{
		Version: wire.ProtocolVersion, AnchorID: 2,
		Antennas: uint8(dep.Anchors[0].N), Bands: uint16(len(dep.Bands)),
	}); err != nil {
		t.Fatal(err)
	}
	// The mute client gets pruned: its reads start failing.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}
	deadlinePruned := time.Now().Add(5 * time.Second)
	for srv.Stats().Pruned == 0 {
		if time.Now().After(deadlinePruned) {
			t.Fatal("mute connection never pruned")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Real daemons echoed their probes and still complete rounds.
	for _, d := range daemons {
		if err := d.MeasureAndReport(0, 1, geom.Pt(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-srv.Fixes():
	case <-time.After(5 * time.Second):
		t.Fatal("live anchors were pruned with the dead one")
	}
}

// TestSoakUnderFaults is the acceptance soak: a full testbed running under
// seeded 5% frame loss plus one forced mid-soak reconnect. Every round
// must produce a fix within the deadline, and shutdown must leave no hung
// goroutines.
func TestSoakUnderFaults(t *testing.T) {
	const (
		seed     = 75
		rounds   = 15
		deadline = 400 * time.Millisecond
	)
	baseline := runtime.NumGoroutine()

	dep, err := testbed.Paper(seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New("127.0.0.1:0", Config{
		Anchors:           len(dep.Anchors),
		Antennas:          dep.Anchors[0].N,
		Bands:             dep.Bands,
		RoundDeadline:     deadline,
		MinAnchors:        3,
		MinBands:          6,
		HeartbeatInterval: 100 * time.Millisecond,
		Logger:            quietLogger(),
		OnSnapshot: func(info RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
			res, err := eng.LocateOpts(snap, core.LocateOptions{Ref: info.Ref})
			if err != nil {
				return geom.Point{}, err
			}
			return res.Estimate, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 5 misses, not the default 3: the soak keeps a margin against
	// heartbeat echoes lost to the injected frame loss.
	srv.mu.Lock()
	srv.hbMisses = 5
	srv.mu.Unlock()

	// Every daemon dials through a fault-injecting wrapper: 5% of frames
	// (CSI rows, hellos, heartbeat echoes alike) vanish silently.
	var faultMu sync.Mutex
	var salt uint64
	wrapped := map[int]*faultnet.Conn{}
	daemons := make([]*anchor.Daemon, len(dep.Anchors))
	for i := range daemons {
		depI, err := testbed.Paper(seed)
		if err != nil {
			t.Fatal(err)
		}
		d, err := anchor.New(i, depI, quietLogger())
		if err != nil {
			t.Fatal(err)
		}
		d.Backoff = anchor.Backoff{Initial: 20 * time.Millisecond, Max: 100 * time.Millisecond}
		id := i
		d.Dial = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			faultMu.Lock()
			salt++
			fc := faultnet.WrapConn(c, faultnet.Config{Seed: seed, DropProb: 0.05}, salt)
			wrapped[id] = fc
			faultMu.Unlock()
			return fc, nil
		}
		if err := d.Connect(srv.Addr()); err != nil {
			t.Fatal(err)
		}
		daemons[i] = d
	}

	tag := geom.Pt(0.7, -0.9)
	errs := make([]float64, 0, rounds)
	for round := uint32(1); round <= rounds; round++ {
		if round == rounds/2 {
			// Forced churn: hard-reset a non-master anchor's connection
			// mid-soak. The daemon must reconnect and keep reporting.
			faultMu.Lock()
			fc := wrapped[2]
			faultMu.Unlock()
			fc.ForceReset()
		}
		for _, d := range daemons {
			if err := d.MeasureAndReport(0, round, tag); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		select {
		case fix := <-srv.Fixes():
			if fix.Round != round {
				t.Fatalf("got fix for round %d, want %d", fix.Round, round)
			}
			errs = append(errs, geom.Pt(fix.X, fix.Y).Dist(tag))
		case <-time.After(deadline + 10*time.Second):
			t.Fatalf("round %d produced no fix (stats %+v)", round, srv.Stats())
		}
	}
	// Median accuracy must hold; individual rounds may flip to the room's
	// rival likelihood peak when band gaps perturb a near-tie (the same
	// flip happens on complete data at ambiguous tag positions).
	sorted := append([]float64(nil), errs...)
	sort.Float64s(sorted)
	if med := sorted[len(sorted)/2]; med > 2.0 {
		t.Errorf("median fix error %.2fm over %d faulty rounds, want < 2m (errors %v)", med, rounds, errs)
	}
	st := srv.Stats()
	if st.Full+st.Partial != rounds {
		t.Errorf("completions %d full + %d partial != %d rounds", st.Full, st.Partial, rounds)
	}
	if st.Evicted != 0 {
		t.Errorf("%d rounds evicted under quorum-covered loss", st.Evicted)
	}
	if rec, _, _ := daemons[2].Stats(); rec < 1 {
		t.Error("churned daemon never reconnected")
	}

	// Clean shutdown leaves no hung goroutines.
	for _, d := range daemons {
		if err := d.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			t.Logf("daemon close: %v", err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Logf("server close: %v", err)
	}
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+4 {
		if time.Now().After(leakDeadline) {
			t.Errorf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), baseline)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
}
