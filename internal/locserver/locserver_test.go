package locserver

import (
	"context"
	"io"
	"log/slog"
	"net"
	"sync"
	"testing"
	"time"

	"bloc/internal/anchor"
	"bloc/internal/ble"
	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/geom"
	"bloc/internal/testbed"
	"bloc/internal/wire"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// startTestbed spins up a server plus one daemon per anchor, all sharing
// the deployment seed, and returns them with a cleanup function.
func startTestbed(t *testing.T, seed uint64, onSnap func(RoundInfo, *csi.Snapshot) (geom.Point, error)) (*Server, []*anchor.Daemon) {
	t.Helper()
	dep, err := testbed.Paper(seed)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New("127.0.0.1:0", Config{
		Anchors:    len(dep.Anchors),
		Antennas:   dep.Anchors[0].N,
		Bands:      dep.Bands,
		OnSnapshot: onSnap,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	daemons := make([]*anchor.Daemon, len(dep.Anchors))
	for i := range daemons {
		// Every daemon gets its own deployment built from the same seed —
		// the distributed processes share the "physical world" only
		// through the seed, as real anchors share it through the air.
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

// TestIngestRowOutOfRangeAnchorRejected pins the exported ingest
// path's anchor bound: the TCP path validates anchor IDs at hello, but
// Server.IngestRow (the fleet router's seam) must reject an
// out-of-range ID as malformed — not panic under s.mu, which would
// strand the lock behind the ingest recover and wedge every later
// ingest, Stats and Close.
func TestIngestRowOutOfRangeAnchorRejected(t *testing.T) {
	srv, err := New("127.0.0.1:0", Config{
		Anchors: 3, Antennas: 1, Bands: ble.DataChannels()[:2],
		FixQueueDepth: 8,
		OnSnapshot: func(RoundInfo, *csi.Snapshot) (geom.Point, error) {
			return geom.Pt(0, 0), nil
		},
		Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	row := func(anchor uint8, band uint16) *wire.CSIRow {
		return &wire.CSIRow{
			Round: 1, TagID: 5, AnchorID: anchor, BandIdx: band,
			Tag: []complex128{complex(1, float64(band+1))}, Master: complex(1, 1),
		}
	}
	// Out-of-range anchor IDs, before and mid-round: dropped, no panic.
	srv.IngestRow(row(3, 0))
	srv.IngestRow(row(0, 0))
	srv.IngestRow(row(0xFF, 1))
	// The server still assembles and serves the valid round.
	for a := uint8(0); a < 3; a++ {
		for b := uint16(0); b < 2; b++ {
			srv.IngestRow(row(a, b))
		}
	}
	select {
	case fix := <-srv.Fixes():
		if fix.TagID != 5 || fix.Round != 1 {
			t.Fatalf("unexpected fix %+v", fix)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("round never completed after out-of-range rows")
	}
	// Stats must not block (the lock was never stranded) and no panic
	// was recovered: the bad rows were rejected up front.
	if st := srv.Stats(); st.PanicsRecovered != 0 {
		t.Errorf("PanicsRecovered = %d, want 0 (rejection, not recovery)", st.PanicsRecovered)
	}
}

func TestDistributedSnapshotMatchesDirect(t *testing.T) {
	const seed = 21
	var (
		mu       sync.Mutex
		received *csi.Snapshot
	)
	srv, daemons := startTestbed(t, seed, func(info RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
		mu.Lock()
		received = snap
		mu.Unlock()
		return geom.Pt(0, 0), nil
	})
	tag := geom.Pt(0.9, -1.1)
	for _, d := range daemons {
		if err := d.MeasureAndReport(0, 7, tag); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-srv.Fixes():
	case <-time.After(5 * time.Second):
		t.Fatal("round never completed")
	}
	// The assembled snapshot must equal the direct simulation of the same
	// round.
	dep, _ := testbed.Paper(seed)
	want := dep.Fork(7).Sounding(tag)
	mu.Lock()
	defer mu.Unlock()
	if received == nil {
		t.Fatal("no snapshot received")
	}
	for b := range want.Bands {
		for i := range want.Tag[b] {
			for j := range want.Tag[b][i] {
				if received.Tag[b][i][j] != want.Tag[b][i][j] {
					t.Fatalf("band %d anchor %d ant %d: %v != %v",
						b, i, j, received.Tag[b][i][j], want.Tag[b][i][j])
				}
			}
			if received.Master[b][i] != want.Master[b][i] {
				t.Fatalf("band %d master %d mismatch", b, i)
			}
		}
	}
}

func TestDistributedLocalizationEndToEnd(t *testing.T) {
	const seed = 33
	dep, err := testbed.Paper(seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		t.Fatal(err)
	}
	srv, daemons := startTestbed(t, seed, func(info RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
		res, err := eng.LocateOpts(snap, core.LocateOptions{Ref: info.Ref})
		if err != nil {
			return geom.Point{}, err
		}
		return res.Estimate, nil
	})

	// Daemons learn fixes via broadcast.
	fixCh := make(chan wire.Fix, 8)
	daemons[2].OnFix = func(f wire.Fix) { fixCh <- f }

	tag := geom.Pt(-0.7, 0.8)
	for round := uint32(1); round <= 2; round++ {
		for _, d := range daemons {
			if err := d.MeasureAndReport(0, round, tag); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 2; round++ {
		select {
		case fix := <-srv.Fixes():
			est := geom.Pt(fix.X, fix.Y)
			if est.Dist(tag) > 2.0 {
				t.Errorf("round %d fix %v too far from tag %v", fix.Round, est, tag)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for fix")
		}
	}
	// The anchor-side broadcast listener saw at least one fix.
	select {
	case <-fixCh:
	case <-time.After(5 * time.Second):
		t.Fatal("anchor never received fix broadcast")
	}
}

func TestServerRejectsBadHello(t *testing.T) {
	dep, err := testbed.Paper(1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New("127.0.0.1:0", Config{
		Anchors:  4,
		Antennas: 4,
		Bands:    dep.Bands,
		OnSnapshot: func(RoundInfo, *csi.Snapshot) (geom.Point, error) {
			return geom.Point{}, nil
		},
		Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cases := []*wire.Hello{
		{Version: 99, AnchorID: 0, Antennas: 4, Bands: 37},                   // bad version
		{Version: wire.ProtocolVersion, AnchorID: 9, Antennas: 4, Bands: 37}, // bad anchor
		{Version: wire.ProtocolVersion, AnchorID: 0, Antennas: 2, Bands: 37}, // bad antennas
	}
	for _, h := range cases {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.Send(conn, h); err != nil {
			t.Fatal(err)
		}
		// Server should close the connection: the next read must fail
		// promptly.
		conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		if _, err := wire.Receive(conn); err == nil {
			t.Errorf("server accepted bad hello %+v", h)
		}
		conn.Close()
	}
}

func TestServerConfigValidation(t *testing.T) {
	ok := func(RoundInfo, *csi.Snapshot) (geom.Point, error) { return geom.Point{}, nil }
	if _, err := New("127.0.0.1:0", Config{Anchors: 1, Antennas: 4, Bands: ble.DataChannels(), OnSnapshot: ok}); err == nil {
		t.Error("1 anchor should be rejected")
	}
	if _, err := New("127.0.0.1:0", Config{Anchors: 4, Antennas: 4, Bands: ble.DataChannels()}); err == nil {
		t.Error("missing callback should be rejected")
	}
	if _, err := New("127.0.0.1:0", Config{Anchors: 4, Antennas: 4, OnSnapshot: ok}); err == nil {
		t.Error("empty bands should be rejected")
	}
}

func TestDuplicateRowsIgnored(t *testing.T) {
	const seed = 5
	calls := 0
	var mu sync.Mutex
	srv, daemons := startTestbed(t, seed, func(RoundInfo, *csi.Snapshot) (geom.Point, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return geom.Pt(0, 0), nil
	})
	tag := geom.Pt(0.2, 0.2)
	// Send the same round twice from every anchor: rounds complete once.
	for rep := 0; rep < 2; rep++ {
		for _, d := range daemons {
			if err := d.MeasureAndReport(0, 3, tag); err != nil {
				t.Fatal(err)
			}
		}
	}
	select {
	case <-srv.Fixes():
	case <-time.After(5 * time.Second):
		t.Fatal("round never completed")
	}
	time.Sleep(200 * time.Millisecond) // allow any (wrong) second completion
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Errorf("OnSnapshot called %d times, want 1", calls)
	}
}

func TestAnchorDaemonValidation(t *testing.T) {
	dep, err := testbed.Paper(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := anchor.New(9, dep, quietLogger()); err == nil {
		t.Error("out-of-range anchor id should fail")
	}
	d, err := anchor.New(0, dep, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.MeasureAndReport(0, 1, geom.Pt(0, 0)); err == nil {
		t.Error("report before connect should fail")
	}
	if err := d.Close(); err != nil {
		t.Errorf("close unconnected daemon: %v", err)
	}
}

func TestServeStopsOnContextCancel(t *testing.T) {
	srv, _ := startTestbed(t, 48, func(RoundInfo, *csi.Snapshot) (geom.Point, error) {
		return geom.Point{}, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not stop on cancel")
	}
}
