#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Every build product (module cache, build cache, binary) stays under
# .bench_build/ at the checkout root; nothing is fetched from a network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: $root holds no go.mod; the program under test is missing" >&2
	exit 2
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
