package bloc

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestServebenchCompiles vets the serving benchmark against this tree.
// servebench is its own module, so `go test ./...` never builds it, and
// a change to an API it calls would otherwise surface only when the
// benchmark runs. The environment matches servebench/run.sh: no
// workspace, no inherited build flags, no toolchain or module downloads.
func TestServebenchCompiles(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		gobin = filepath.Join(runtime.GOROOT(), "bin", "go")
		if _, statErr := os.Stat(gobin); statErr != nil {
			t.Skipf("no go tool found: %v", err)
		}
	}
	cmd := exec.Command(gobin, "vet", "./...")
	cmd.Dir = "servebench"
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in servebench: %v\n%s", err, out)
	}
}
