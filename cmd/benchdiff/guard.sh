#!/usr/bin/env bash
# Runs the benchmarks BENCH_BASELINE.json pins. From the root of a checkout:
#
#   bash cmd/benchdiff/guard.sh fresh.txt allocs.txt
#   go run ./cmd/benchdiff -baseline BENCH_BASELINE.json -bench fresh.txt -allocs allocs.txt
#
# (or benchdiff -write to re-baseline from the two files).
#
# fresh.txt gets five timing samples of every benchmark. They are taken in
# five rounds, each running every benchmark once, so a few busy seconds on a
# shared host slow one sample of each benchmark instead of all five of one.
# A sample runs the benchmark for tens of milliseconds: five iterations of a
# sub-millisecond benchmark moved its median by up to 70% between
# back-to-back runs, more than benchdiff's 30% gate.
#
# allocs.txt gets one allocation count of every benchmark, from a run with
# GOGC=off and one P: without collections no sync.Pool empties mid-run, and
# with one P a Put is always found by the next Get, so allocs/op is exact
# and the same every run. Its iterations stay few, as nothing is collected.
set -euo pipefail

if [[ $# -ne 2 ]]; then
	echo "usage: bash cmd/benchdiff/guard.sh fresh.txt allocs.txt" >&2
	exit 2
fi
fresh=$1 allocs=$2

# package, iterations per timing sample, iterations of the allocation run,
# and the benchmarks.
groups=(
	"./internal/core 2000 5 BenchmarkForwardBackward|BenchmarkQuotient|BenchmarkEncodeBinary|BenchmarkDecodeBinary"
	"./internal/core 200 5 BenchmarkBuild|BenchmarkTopK|BenchmarkStateObserve|BenchmarkSessionSmooth500|BenchmarkEncode|BenchmarkBuildQuotient"
	"./internal/core 20 5 BenchmarkFullSmooth500|BenchmarkDecode"
	"./internal/server 2000 5 BenchmarkCodecEncodeReadings|BenchmarkCodecDecodeReadings|BenchmarkHubFanout|BenchmarkDecodeCleanBody"
	"./internal/server 200 5 BenchmarkServerCleanCached"
	"./internal/server 100000 100000 BenchmarkObserveWithExemplars"
	". 2000 5 BenchmarkStreamSession|BenchmarkPatternQuery"
	". 50 5 BenchmarkDeploymentSystem"
	". 5 5 BenchmarkSYN1Pool"
)

: >"$fresh"
for round in 1 2 3 4 5; do
	for g in "${groups[@]}"; do
		read -r pkg n _ re <<<"$g"
		go test -run '^$' -bench "^($re)\$" -benchtime="${n}x" "$pkg" | tee -a "$fresh"
	done
done

: >"$allocs"
for g in "${groups[@]}"; do
	read -r pkg _ n re <<<"$g"
	GOGC=off go test -run '^$' -bench "^($re)\$" -benchtime="${n}x" -benchmem -cpu 1 "$pkg" | tee -a "$allocs"
done
