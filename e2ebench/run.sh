#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and
# runs it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload mssp-lj --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build cache, binary and outputs stay in
# .bench_build/ under the root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .) >&2
exec "$out/bin/e2ebench" "$@"
