// Distributed deployment: the full §3 architecture as real processes —
// four anchor daemons stream per-band CSI reports over TCP to the central
// localization server, which assembles snapshots, localizes and
// broadcasts fixes back. Everything runs in this process over localhost,
// but the daemons and the server only talk through the wire protocol; the
// same binaries (cmd/bloc-anchor, cmd/bloc-server) deploy across machines.
package main

import (
	"fmt"
	"io"
	"log"
	"log/slog"
	"time"

	"bloc/internal/anchor"
	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/geom"
	"bloc/internal/locserver"
	"bloc/internal/testbed"
)

func main() {
	const seed = 5
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	// Central server with the localization engine.
	dep, err := testbed.Paper(seed)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		log.Fatal(err)
	}
	srv, err := locserver.New("127.0.0.1:0", locserver.Config{
		Anchors:  len(dep.Anchors),
		Antennas: dep.Anchors[0].N,
		Bands:    dep.Bands,
		OnSnapshot: func(info locserver.RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
			res, err := eng.LocateOpts(snap, core.LocateOptions{Ref: info.Ref})
			if err != nil {
				return geom.Point{}, err
			}
			return res.Estimate, nil
		},
		Logger: quiet,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("server listening on", srv.Addr())

	// One daemon per anchor, each with its own view of the shared world.
	daemons := make([]*anchor.Daemon, len(dep.Anchors))
	for i := range daemons {
		depI, err := testbed.Paper(seed)
		if err != nil {
			log.Fatal(err)
		}
		d, err := anchor.New(i, depI, quiet)
		if err != nil {
			log.Fatal(err)
		}
		if err := d.Connect(srv.Addr()); err != nil {
			log.Fatal(err)
		}
		defer d.Close()
		daemons[i] = d
	}
	fmt.Printf("%d anchor daemons connected\n\n", len(daemons))

	// Two tags wander the room concurrently; every position is one
	// acquisition round, reported independently by every anchor and
	// aggregated per (tag, round) by the server.
	trajectories := map[uint16][]geom.Point{
		1: {geom.Pt(0.8, -0.6), geom.Pt(0.2, 0.4), geom.Pt(-0.9, 1.1)},
		2: {geom.Pt(-1.4, -0.3), geom.Pt(0.4, -1.8), geom.Pt(1.3, 0.9)},
	}
	truth := map[[2]uint32]geom.Point{}
	expected := 0
	for tagID, traj := range trajectories {
		for r, pos := range traj {
			round := uint32(r + 1)
			truth[[2]uint32{uint32(tagID), round}] = pos
			expected++
			for _, d := range daemons {
				if err := d.MeasureAndReport(tagID, round, pos); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	fmt.Println("tag  round  truth            server fix        err(m)")
	for i := 0; i < expected; i++ {
		select {
		case fix := <-srv.Fixes():
			est := geom.Pt(fix.X, fix.Y)
			want := truth[[2]uint32{uint32(fix.TagID), fix.Round}]
			fmt.Printf("%3d  %5d  %-15v  %-15v  %6.2f\n",
				fix.TagID, fix.Round, want, est, est.Dist(want))
		//lint:ignore clockcheck example watchdog; real elapsed time is the point
		case <-time.After(10 * time.Second):
			log.Fatal("timed out waiting for fix")
		}
	}
}
