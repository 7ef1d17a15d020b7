#!/usr/bin/env bash
# End-to-end serving benchmark for BLoc. Builds bloc-server and the load
# generator from the source tree it is run in, then runs one workload:
#
#   bash servebench/run.sh --workload tracked --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product, Go cache and
# scratch file stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/bloc-server" || ! -f "$root/servebench/go.mod" ]]; then
	echo "servebench: run from the repository root (go.mod, cmd/bloc-server and servebench/ not found in $root)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off
unset GOMAXPROCS GOGC GODEBUG

go build -o "$out/bin/bloc-server" ./cmd/bloc-server
(cd "$root/servebench" && go build -o "$out/bin/servebench" .)

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
exec "$out/bin/servebench" -server "$out/bin/bloc-server" -root "$root" -commit "$commit" "$@"
