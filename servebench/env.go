package main

import (
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// printEnv records what two runs must share to be comparable: the machine
// shape, both processes' GOMAXPROCS, the toolchain, the source revision
// and every bloc-server flag with the value it runs with.
func printEnv(cfg *config) error {
	src, err := sourceHash(cfg.root)
	if err != nil {
		return fmt.Errorf("source hash: %w", err)
	}
	serverGo := "unknown"
	if bi, err := buildinfo.ReadFile(cfg.server); err == nil {
		serverGo = bi.GoVersion
	}
	// Neither process sets GOMAXPROCS (run.sh clears it), so the server's
	// is the runtime default: NumCPU.
	fmt.Printf("env: num_cpu=%d gomaxprocs_bench=%d gomaxprocs_server=%d go=%s server_go=%s commit=%s source_sha256=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), serverGo, cfg.commit, src)

	defaults, err := serverFlagDefaults(cfg.server)
	if err != nil {
		return err
	}
	set := map[string]string{}
	args := cfg.w.opts.args(cfg.fpPath)
	for i := 0; i < len(args); i++ {
		name := strings.TrimPrefix(args[i], "-")
		if i+1 < len(args) && !strings.HasPrefix(args[i+1], "-") {
			set[name] = args[i+1]
			i++
		} else {
			set[name] = "true"
		}
	}
	var b strings.Builder
	for _, f := range defaults {
		v := f[1]
		if s, ok := set[f[0]]; ok {
			v = s
		}
		fmt.Fprintf(&b, " -%s=%s", f[0], v)
	}
	fmt.Printf("server_flags:%s\n", b.String())
	return nil
}

// sourceHash digests every Go source and module file under root (hidden
// directories such as .bench_build excluded), so two checkouts can be
// shown to run identical code without version control.
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// bench3 reads the engine-only report's full-grid and tracked per-fix
// latencies (ms), for reconciling with the traced core.* spans.
func bench3(root string) (full, gated float64, err error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCH_3.json"))
	if err != nil {
		return 0, 0, err
	}
	var r struct {
		After struct {
			NsPerFix float64 `json:"ns_per_fix"`
		} `json:"after"`
		Tracked []struct {
			NsPerFix float64 `json:"ns_per_fix"`
		} `json:"tracked"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return 0, 0, err
	}
	if len(r.Tracked) == 0 {
		return 0, 0, fmt.Errorf("BENCH_3.json has no tracked section")
	}
	return r.After.NsPerFix / 1e6, r.Tracked[0].NsPerFix / 1e6, nil
}
