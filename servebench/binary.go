package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The shipped bloc-server, run as a child process with production
// defaults. Its only observable surfaces are the wire protocol and its
// log on stderr, which is drained (as a deployment's log shipper would)
// and parsed for the per-fix tier and the operational events the
// workload checks need.

// serverProc is one bloc-server process.
type serverProc struct {
	cmd     *exec.Cmd
	addr    chan string   // the listening address, once
	drained chan struct{} // stderr reached EOF
	sink    atomic.Pointer[loadgen]

	// Operational events seen in the log.
	modeChanges  atomic.Int64 // "serve mode changed"
	pruned       atomic.Int64 // "anchor unresponsive, pruning"
	evicted      atomic.Int64 // "round evicted at deadline"
	partial      atomic.Int64 // "round completed at deadline" with a CSI quorum
	quarantines  atomic.Int64 // health transitions into quarantine
	readmissions atomic.Int64 // health transitions back to healthy
	reelections  atomic.Int64 // "reference re-elected"
	dropped      atomic.Int64 // "fix dropped …" (budget) and "localization failed"

	tailMu sync.Mutex
	tail   []string // last log lines, for error reports; guarded by tailMu
}

// startServer execs bloc-server and starts draining its log.
func startServer(bin string, args []string) (*serverProc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, addr: make(chan string, 1), drained: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go p.drain(stderr)
	return p, nil
}

// awaitListening returns the address once the server logs it.
func (p *serverProc) awaitListening(timeout time.Duration) (string, error) {
	select {
	case a := <-p.addr:
		return a, nil
	case <-p.drained:
		return "", fmt.Errorf("bloc-server exited before listening:\n%s", p.logTail())
	case <-time.After(timeout):
		return "", fmt.Errorf("bloc-server not listening after %v:\n%s", timeout, p.logTail())
	}
}

func (p *serverProc) drain(r io.Reader) {
	defer close(p.drained)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		p.line(sc.Text())
	}
}

// line handles one slog text record.
func (p *serverProc) line(l string) {
	msg := logField(l, "msg")
	switch msg {
	case "fix":
		if d := p.sink.Load(); d != nil {
			round, err1 := strconv.ParseUint(logField(l, "round"), 10, 32)
			tag, err2 := strconv.ParseUint(logField(l, "tag"), 10, 16)
			if err1 == nil && err2 == nil {
				if s := d.slotOf(uint32(round), uint16(tag)); s != nil {
					s.tier.Store(tierCode(logField(l, "tier")))
				}
			}
		}
		return
	case "bloc-server listening":
		p.addr <- logField(l, "addr")
	case "serve mode changed":
		p.modeChanges.Add(1)
	case "anchor unresponsive, pruning":
		p.pruned.Add(1)
	case "round evicted at deadline":
		p.evicted.Add(1)
	case "round completed at deadline":
		if logField(l, "coarse") == "false" {
			p.partial.Add(1)
		}
	case "anchor health transition":
		switch logField(l, "to") {
		case "quarantined":
			p.quarantines.Add(1)
		case "healthy":
			p.readmissions.Add(1)
		}
	case "reference re-elected":
		p.reelections.Add(1)
	case "localization failed", "fix dropped before localization (budget exhausted)",
		"fix dropped before broadcast (budget exhausted)":
		p.dropped.Add(1)
	}
	p.tailMu.Lock()
	p.tail = append(p.tail, l)
	if len(p.tail) > 20 {
		p.tail = p.tail[1:]
	}
	p.tailMu.Unlock()
}

func (p *serverProc) logTail() string {
	p.tailMu.Lock()
	defer p.tailMu.Unlock()
	return strings.Join(p.tail, "\n")
}

// logField extracts key's value from a slog text record (quoted values
// are unquoted).
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

// stop asks the server to drain (SIGTERM) and waits for it to exit,
// killing it if the drain overruns.
func (p *serverProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	exited := make(chan error, 1)
	go func() {
		<-p.drained
		exited <- p.cmd.Wait()
	}()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("bloc-server exit: %w\n%s", err, p.logTail())
		}
		return nil
	case <-time.After(15 * time.Second):
		p.kill()
		<-exited
		return errors.New("bloc-server did not drain within 15s")
	}
}

// kill ends the process at once and reaps it.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.drained
	p.cmd.Wait()
}

// procCPU returns the user+system CPU time a process has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// procPeakRSS returns a process's peak resident set size in bytes.
func procPeakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// machineSteal returns the CPU time the hypervisor took from this
// machine's CPUs (the steal column of /proc/stat), 0 when unknown.
func machineSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / 100
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// serverFlagDefaults lists every bloc-server flag with its default, read
// from the binary's own usage text.
func serverFlagDefaults(bin string) ([][2]string, error) {
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits non-zero by design
	var flags [][2]string
	lines := strings.Split(string(out), "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, "  -") {
			continue
		}
		f := strings.Fields(l)
		name := f[0][1:]
		def := "false" // a bool flag prints no type and no false default
		if len(f) > 1 {
			// Typed flags print no default when it is the zero value.
			def = map[string]string{"duration": "0s", "int": "0", "uint": "0", "float": "0"}[f[1]]
		}
		if i+1 < len(lines) {
			if j := strings.LastIndex(lines[i+1], "(default "); j >= 0 {
				def = strings.TrimSuffix(lines[i+1][j+len("(default "):], ")")
			}
		}
		flags = append(flags, [2]string{name, def})
	}
	if len(flags) == 0 {
		return nil, fmt.Errorf("no flags in %s -h output", bin)
	}
	return flags, nil
}
