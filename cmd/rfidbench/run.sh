#!/usr/bin/env bash
# Builds rfidcleand and the benchmark from this checkout, then runs one
# benchmark invocation with the given arguments. Run it from the root of the
# checkout:
#
#   bash cmd/rfidbench/run.sh --workload offline-clean --seed 1 --seconds 12 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# the Go build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/rfidcleand || ! -f cmd/rfidbench/go.mod ]]; then
	echo "rfidbench: run from the root of an rfidclean checkout (go.mod, cmd/rfidcleand, cmd/rfidbench)" >&2
	exit 2
fi

out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
mkdir -p "$out/bin" "$TMPDIR"

go build -o "$out/bin/rfidcleand" ./cmd/rfidcleand
(cd cmd/rfidbench && go build -o "$out/bin/rfidbench" .)
exec "$out/bin/rfidbench" "$@"
