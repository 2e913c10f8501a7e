#!/usr/bin/env bash
# Builds the served-path benchmark from the sources of this checkout and
# runs it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload doc-json --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, traces and result metadata.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=
if ! command -v go >/dev/null 2>&1; then
	export PATH="$PATH:/usr/local/go/bin"
fi

cd "$root"
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
