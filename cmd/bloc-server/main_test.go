package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bloc/internal/anchor"
	"bloc/internal/durable"
	"bloc/internal/geom"
	"bloc/internal/testbed"
	"bloc/internal/wire"
)

// serverEnv makes the test binary run bloc-server's main instead of the
// tests, so a test can launch the real process — signal handling, exit
// status — without building the command.
const serverEnv = "BLOC_SERVER_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(serverEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// logField extracts key's value from a slog text record, unquoting a
// quoted value; "" when the key is absent.
func logField(l, key string) string {
	i := strings.Index(l, " "+key+"=")
	if i < 0 {
		return ""
	}
	v := l[i+len(key)+2:]
	if strings.HasPrefix(v, `"`) {
		if s, err := strconv.QuotedPrefix(v); err == nil {
			if u, err := strconv.Unquote(s); err == nil {
				return u
			}
		}
		return ""
	}
	if j := strings.IndexByte(v, ' '); j >= 0 {
		v = v[:j]
	}
	return v
}

// TestServerProcessSigtermAfterListening sends SIGTERM the moment the
// server logs that it listens. The handler is installed before that
// line, so every launch must drain, exit 0 and leave a final checkpoint.
func TestServerProcessSigtermAfterListening(t *testing.T) {
	for i := 0; i < 20; i++ {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-listen", "127.0.0.1:0", "-stats", "0", "-state-dir", dir)
		cmd.Env = append(os.Environ(), serverEnv+"=1")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		watchdog := time.AfterFunc(15*time.Second, func() { cmd.Process.Kill() })
		var lines []string
		drained := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			l := sc.Text()
			lines = append(lines, l)
			switch logField(l, "msg") {
			case "bloc-server listening":
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
			case "drained cleanly":
				drained = true
			}
		}
		err = cmd.Wait()
		watchdog.Stop()
		if err != nil || !drained {
			t.Fatalf("launch %d: exit %v, drained %v\n%s", i, err, drained, strings.Join(lines, "\n"))
		}
		store, err := durable.Open(filepath.Join(dir, "cell-0"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Load(); err != nil {
			t.Fatalf("launch %d: final checkpoint: %v", i, err)
		}
	}
}

// logLines is run's stderr: it keeps every record and wakes waiters.
type logLines struct {
	mu    sync.Mutex
	lines []string      // guarded by mu
	wake  chan struct{} // capacity 1: a pending wake-up covers any number of writes
}

func newLogLines() *logLines { return &logLines{wake: make(chan struct{}, 1)} }

func (l *logLines) Write(p []byte) (int, error) {
	l.mu.Lock()
	l.lines = append(l.lines, strings.Split(strings.TrimRight(string(p), "\n"), "\n")...)
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
	return len(p), nil
}

func (l *logLines) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// await waits until n distinct records satisfy match and returns them.
func (l *logLines) await(t *testing.T, n int, what string, match func(string) bool) []string {
	t.Helper()
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	for {
		var got []string
		l.mu.Lock()
		for _, line := range l.lines {
			if match(line) {
				got = append(got, line)
			}
		}
		l.mu.Unlock()
		if len(got) >= n {
			return got
		}
		select {
		case <-l.wake:
		case <-deadline.C:
			t.Fatalf("waiting for %d × %s, saw %d; log:\n%s", n, what, len(got), l)
		}
	}
}

// runServer calls run in the background; stop cancels it and requires a
// clean drain.
func runServer(t *testing.T, args ...string) (log *logLines, stop func()) {
	t.Helper()
	log = newLogLines()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, log) }()
	return log, func() {
		t.Helper()
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("run: %v\n%s", err, log)
		}
		log.await(t, 1, "drained cleanly", func(l string) bool { return logField(l, "msg") == "drained cleanly" })
	}
}

// TestServerProcessEndToEnd serves real anchor daemons through run, as
// one cell and as two, and pins what the serving benchmark reads off the
// process: a listening line with addr per cell, a fix line with its tier,
// the fix broadcast to the anchors, a clean drain on shutdown, and a warm
// restart from <state-dir>/cell-<i>.
func TestServerProcessEndToEnd(t *testing.T) {
	dep, err := testbed.Paper(1)
	if err != nil {
		t.Fatal(err)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	for _, cells := range []int{1, 2} {
		t.Run(fmt.Sprintf("cells=%d", cells), func(t *testing.T) {
			args := []string{"-listen", "127.0.0.1:0", "-stats", "0",
				"-cells", strconv.Itoa(cells), "-state-dir", t.TempDir()}
			log, stop := runServer(t, args...)
			listening := log.await(t, cells, "bloc-server listening", func(l string) bool {
				return logField(l, "msg") == "bloc-server listening"
			})

			fixes := make(chan wire.Fix, 4*cells)
			var daemons []*anchor.Daemon
			for _, l := range listening {
				cell, err := strconv.Atoi(logField(l, "cell"))
				if err != nil {
					t.Fatalf("listening line without a cell: %s", l)
				}
				tag := uint16(10 + cell)
				for id := range dep.Anchors {
					d, err := anchor.New(id, dep, quiet)
					if err != nil {
						t.Fatal(err)
					}
					d.OnFix = func(f wire.Fix) {
						select {
						case fixes <- f:
						default:
						}
					}
					daemons = append(daemons, d)
					if err := d.Connect(logField(l, "addr")); err != nil {
						t.Fatal(err)
					}
					if err := d.MeasureAndReport(tag, 1, geom.Pt(2, 3)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for cell := 0; cell < cells; cell++ {
				tag := strconv.Itoa(10 + cell)
				log.await(t, 1, "full-csi fix of tag "+tag, func(l string) bool {
					return logField(l, "msg") == "fix" && logField(l, "tag") == tag &&
						logField(l, "round") == "1" && logField(l, "tier") == "full-csi"
				})
			}
			seen := map[uint16]bool{}
			deadline := time.After(10 * time.Second)
			for len(seen) < cells {
				select {
				case f := <-fixes:
					seen[f.TagID] = true
				case <-deadline:
					t.Fatalf("anchors received fixes for tags %v, want %d tags", seen, cells)
				}
			}
			for _, d := range daemons {
				d.Close()
			}
			stop()

			log, stop = runServer(t, args...)
			log.await(t, 1, "warm restart of cell 0", func(l string) bool {
				return logField(l, "msg") == "warm restart from snapshot" && logField(l, "cell") == "0"
			})
			stop()
		})
	}
}
