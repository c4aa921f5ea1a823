// Command rfidbench is the repository's benchmark: the one command whose
// numbers define rfidclean's performance. run.sh builds rfidcleand and
// rfidbench from the checkout; rfidbench then, for one workload, boots a
// fresh durable rfidcleand, drives the workload at it from this process,
// reads the daemon's /proc/<pid>/task/*/schedstat, /proc/<pid>/status and
// /metrics, checks the answers and the recovery, SIGKILLs the daemon and
// prints one JSON line:
//
//	{"correct": true, "attempted": 810, "failed": 0, "metrics": {"primary_p50_ms": {"value": 1.97, "unit": "ms"}, ...}}
//
// # Running it
//
// From the root of a checkout:
//
//	bash cmd/rfidbench/run.sh --workload offline-clean --seed 1 --seconds 25 --trace 0
//	bash cmd/rfidbench/run.sh --workload offline-clean --seed 1 --seconds 25 --trace 1
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same window
// and then the traced in-process replay and prints the per-layer metrics,
// writing .bench_build/BENCH_TRACE.json (every span) and
// .bench_build/BENCH_LAYERS.json (per request kind: serve time, each
// layer's share, the residual). run.sh keeps every build output, the Go
// build cache included, under .bench_build/. Seed 1 is the baseline; seed 2
// is held out: a claimed gain must also hold on it.
//
// To compare two commits, append runs to a file with --out on each and
// compare the files:
//
//	for s in 1 2 3 4 5 6 7 8 9 10; do bash cmd/rfidbench/run.sh --workload query-mostly --seed $s --seconds 25 --out a.jsonl; done
//	bash cmd/rfidbench/run.sh -compare a.jsonl b.jsonl
//
// -compare prints, per (metric, workload), both medians, both quartile
// ranges (as Python's statistics.quantiles computes them) and a verdict
// against the bound in BENCHMARK.json, and exits non-zero when a metric got
// worse than its bound.
//
// The benchmark is a Go module of its own (go.mod here, the repository
// replaced in as module repro), so that it and its build file live in this
// directory alone. The root module's go build/test ./... therefore skip it;
// its tests run with (cd cmd/rfidbench && go test ./...).
//
// # Inputs
//
// Every workload registers the same two SYN1 deployments, whatever the
// seed; the seed sets the traffic. A run's schedule has a slot every 1/rate
// seconds, open loop: a 2-s warm-up whose inputs are sent once, checked and
// not measured, then a window of --seconds of measured inputs. The load is
// one connection (plus, in live-stream, one SSE subscriber at a time), so
// the load never holds more connections than the 2-core reference host has
// cores and no two requests compete.
//
// What a request costs depends mostly on its reading sequence, and that is
// heavy tailed: one 20-s sequence's graph can have fifty times the nodes of
// another's. Each deployment therefore generates two pools of 512
// sequences and conditions each one in-process to weigh it by its graph: a
// reference pool from a fixed stream and the seed's own. Each kind of input
// takes the seed's sequences whose graph sizes are closest to the reference
// pool's at evenly spaced quantiles, and a batch holds one from each
// quarter. Every seed thus sends different sequences with the same cost
// profile. The mix is exact, inputs alternate between the deployments,
// queries cycle through the prefilled targets and the stream options
// (subscriber, mid-stream smooth) through their four combinations.
//
// # Workloads
//
//   - offline-clean: clean=70,batch=30 at 30 op/s; -max-store-bytes 8 MiB,
//     periodic compaction off. Offline cleaning of whole sequences: prior,
//     core build, store admit and evict, WAL encode+fsync carry the work;
//     queries do none. Primary: clean; secondary: batch of 4.
//   - query-mostly: clean=20,stay=30,pattern=30,top=20 at 45 op/s over 256
//     prefilled graphs, compaction off. Query DP and the store read path
//     carry the work; a change to build or persist should move none of its
//     query latency. The cleans are writes beside reads, so a gain for one
//     that costs the other shows here. Primary: stay, match and top pooled;
//     secondary: clean.
//   - live-stream: 12 sessions/s, each streaming one sequence in 5-reading
//     binary chunks, an SSE subscriber on half the sessions and a mid-stream
//     smooth on half; -max-store-bytes 32 MiB. Codec, candidates,
//     BuildState.Observe, the hub and the incremental smooth carry the work;
//     the offline build and queries do nothing. Primary: readings POST;
//     secondary: the closing DELETE, which runs the final smooth and stores
//     the graph.
//
// A SIGKILL-and-recover workload was measured and dropped: the time from
// exec to a recovered daemon moved by a third to a half from run to run
// with the host, far past any bound. Recovery is checked on every workload instead
// (below) and timed, per layer, by the traced replay.
//
// # End-to-end metrics
//
// Every workload reports all six; all are lower-is-better. The latency of
// an op's first request runs from its due time, not its send time, so a
// stall shows in the ops queued behind it; requests inside a stream session
// after the first are timed from send. Every time is scaled to the
// reference host's speed as measured in the same run (see Noise below).
//
//   - setup_s (s, bound 0.25): daemon exec → /healthz 200 → deployments
//     registered → prefill done, median of seven set-ups on fresh
//     directories.
//   - primary_p50_ms, primary_p90_ms (ms, bound 0.25): the primary kind,
//     about 525 (offline-clean), 900 (query-mostly) and 1200 (live-stream)
//     requests in a 25-s window.
//   - secondary_p50_ms (ms, bound 0.25): the secondary kind, about 225, 225
//     and 300 requests, reported apart so that a change to a rarer request
//     is not averaged away by the primary one.
//   - cpu_ms_per_op (ms, bound 0.25): daemon CPU time (its threads' run
//     time, in nanoseconds) per completed op of the window. It counts what
//     the request path leaves behind, such as the WAL writer's work.
//   - rss_peak_mb (MB, bound 0.2): daemon VmHWM at the end of the window.
//
// Failed requests, ops never dispatched and evicted or incomplete SSE
// subscribers count in "failed" against "attempted"; a valid run has none.
// After every window, four reference sequences are cleaned by the daemon
// and by an in-process server.Open; their stay, match and top answers must
// be byte-identical. Then the daemon is SIGKILLed once its write-ahead log
// is on disk and re-executed on the same directory: it must recover every
// trajectory it held and answer the reference queries byte for byte as
// before. Any mismatch makes the run report correct=false and exit
// non-zero.
//
// # Per-layer metrics
//
// --trace 1 replays in-process, through server.Open with the workload's
// store budget: recoveries of copies of the window's data directory (up to
// eight in three seconds), eight probe ops of every kind the workload does
// not send, then the first 400 inputs of the plan (fewer if six seconds run
// out). Each request runs twice: whole through ServeHTTP (span
// server.serve) and decomposed into the public calls its handler makes,
// each in a span recorded here (name, start, end, parent, op,
// allocations); the program itself records nothing. Persist spans are off
// the request path and excluded from the residual. Every layer metric but
// the shard hop is the median over the spans of one name, so the probes
// give idle layers a number on every workload. Per-layer times are as
// measured, not scaled to the reference host. Each metric, and the
// end-to-end metric it should move:
//
//   - load.sched_lag_p99_ms: generator lateness. A validity check: above a
//     few ms it inflates the latencies.
//   - server.serve_ms.<kind> (clean, batch, readings, close, stay, match,
//     top, restart) and server.residual_ms.<kind> (all but restart): median
//     ServeHTTP time (restart: server.Open recovering the window's data
//     directory) and that minus its blocking spans (mux, middleware, store
//     admission, metrics, response writing). Move the p50 of that kind where
//     a workload sends it; the residual is the "shrink the serving layer"
//     target.
//   - server.net_ms: the primary kind's send→response median in the window
//     minus its serve median. Moves primary_p50_ms.
//   - server.decode_us (JSON clean body), server.codec_us (binary frame):
//     primary_p50_ms on offline-clean and live-stream.
//   - server.store_mb: store bytes at the end of the window; rss_peak_mb.
//   - deployment.system_ms, constraints.infer_ms: calibration of a decoded
//     deployment and cold System.Constraints. setup_s everywhere.
//   - prior.lsequence_us, prior.candidates_us: primary_p50_ms and
//     cpu_ms_per_op on offline-clean and live-stream.
//   - core.build_ms, core.build_allocs, core.build_kb, core.compile_ms,
//     core.forward_ms, core.backward_ms, core.revise_ms, core.graph_nodes:
//     primary and secondary latency and cpu_ms_per_op on offline-clean,
//     secondary on query-mostly; nothing on query-mostly's primary.
//   - core.observe_us, core.smooth_ms: primary and secondary latency on
//     live-stream.
//   - query.stay_us, query.match_ms, query.match_allocs, query.top_ms:
//     primary latency on query-mostly; nothing elsewhere.
//   - persist.encode_ms, persist.put_kb, persist.append_ms,
//     persist.fsync_ms: off the request path; cpu_ms_per_op on
//     offline-clean and live-stream, their latency through CPU contention;
//     nothing on query-mostly's primary.
//   - persist.replay_ms_per_record, persist.data_mb: recovery, which the
//     correctness check times and logs; no end-to-end metric.
//   - shard.hop_ms: a one-shard router in front of an httptest worker minus
//     the direct call. No workload routes yet; on two cores a router fleet
//     measures the scheduler, so this stays a ledger line.
//   - runtime.gc_runs_per_op, runtime.gc_pause_ms_per_op (daemon /metrics
//     over the window), runtime.alloc_mb_per_op (replay, per request of the
//     primary and secondary kinds): the latencies, cpu_ms_per_op and
//     rss_peak_mb.
//   - trace.overhead_pct: the replay recorded against the replay not
//     recorded; a validity check on the per-layer numbers.
//
// # Noise
//
// The shared 2-vCPU reference host changes speed under the benchmark: a
// fixed Go kernel takes 0.27 ms in one second and 0.5 ms in the next, and
// the share of slow seconds moves over minutes. Every time a run measures
// moves with it, daemon CPU per op included. The input matching and the
// single connection remove what the benchmark itself would add (seed-to-seed
// cost differences, self-contention); the host's speed is measured instead
// (speed.go): a fixed standard-library kernel is timed whenever the daemon
// is idle, once before each op of the window and around the set-ups, and
// the run's times are scaled by the reference time over the kernel's mean.
// Over 20 runs per workload the log of each raw latency and CPU metric
// correlated 0.82 to 0.95 with the log of the kernel's time, with slopes of
// 0.5 to 1, so scaling removes most of the drift and can over-correct the
// rest. In two sets of ten seeds per workload the quartile spread of every
// timing metric was at most 0.10 of its median (up to 0.19 unscaled),
// peak memory's at most 0.06 and set-up time's 0.12 to 0.18, and the two
// sets' medians lay within 0.08 of each other. The timing bounds are 0.25,
// the widest BENCHMARK.json allows, and rss_peak_mb's 0.2.
//
// # Outside this benchmark
//
// cmd/rfidload is left unchanged: the benchmark lives in this directory and
// changes no code outside it. rfidload drives one fixed mix and times
// requests from their send, so the benchmark carries its own generator
// (load.go) with per-workload mixes, prefilled targets, matched inputs,
// the speed kernel and due-time latency. Giving rfidload -mix, -prefill and due-time
// timing, the CI bench job, bench-guard's -count/median change and
// re-baselining SLO_BASELINE.json are left for a follow-up.
package main
