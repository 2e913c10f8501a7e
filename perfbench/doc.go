// Command perfbench is the repository's benchmark of the served parse
// path: the pipeline aspend serves, measured from outside.
//
// One run builds a workload's documents from a seed, computes every
// expected answer with the cycle-accurate simulator, times cold
// serve.New calls for the workload's grammar set, and then drives the
// last server (default Options: fast engine, no chaos) over HTTP on a
// loopback listener from nproc client goroutines, each with its own
// connection. Every answer is compared field by field with the
// reference; any mismatch, transport error, non-2xx answer or 429 is a
// failure, and a run with failures exits non-zero. With --trace 1 the
// run then replays the same documents through each layer's public
// functions with a span around every call (see replay.go). No code
// inside internal/ is changed or hooked.
//
//	bash perfbench/run.sh --workload doc-json --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result:
// {"correct", "attempted", "failed", "metrics"}, where metrics are the
// end-to-end metrics with --trace 0 and the per-layer metrics with
// --trace 1. The line before it carries the run's metadata (host, code
// digest, seed, parameters, sample count per metric), which is also
// appended to .bench_build/results.jsonl; a run whose host or parameters
// differ from the previous run of its workload is flagged as not
// comparable.
//
// # Workloads
//
//   - doc-json: ~256 KiB JSON documents, two for each nesting limit 1–7
//     below a record under each of four value mixes, POST /v1/parse/JSON,
//     closed loop. Token-dense, so lexer, token encode and engine do
//     almost all the work and per-request overhead is negligible;
//     concurrent same-grammar requests also meet in the engine batcher.
//     The strata are fixed and the seed draws the content, so seeds move
//     the bytes, not the shape of the workload.
//   - doc-xml: one 256 KiB document per xmlgen corpus spec (all 23, Low,
//     Medium and High markup density, the paper's Fig. 8 axis), in a
//     seeded order, closed loop. Dominated by the byte scan, with far
//     fewer tokens per KiB than JSON: a lexer-scan gain shows here, a
//     per-token encode or exec gain mostly on doc-json.
//   - small-mixed: 200 B–4 KiB documents over all five built-in grammars
//     (JSON, XML, DOT, Cool, MiniC), a seeded ~5% mutated until the
//     simulator rejects them, closed loop. Per-request work dominates:
//     admission, the WFQ/AIMD token and worker slot, HTTP, parser-pool
//     Get/Reset and response encoding. The only workload where five
//     tenants share the WFQ and the only one on the reject path.
//
// Durable ?session= uploads are not a workload: their figures follow the
// disk's fsync latency, which varies too much between runs to gate on.
// The replay's checkpoint and store metrics price a session's per-chunk
// work on every workload instead.
//
// # End-to-end metrics (--trace 0)
//
//   - throughput_mib_s: document MiB answered correctly per second,
//     median over the window's one-second bins.
//   - latency_p50_ms, latency_p99_ms: client-observed latency per request,
//     the median over consecutive groups of at least 1000 requests of each
//     group's percentile.
//   - cpu_ns_per_kib: process user+sys CPU time (getrusage) per KiB
//     answered, client included, median over the bins.
//   - success_rate: requests answered correctly over requests attempted
//     (1 − error_rate; the error rate itself is printed, and is the
//     result line's failed/attempted).
//   - setup_s: median of at least three cold serve.New calls for the
//     workload's grammar set (compile, lowering, lexer build, placement,
//     pool warm-up).
//   - rss_peak_mib: peak RSS (VmHWM) over the measured window.
//
// # Per-layer metrics (--trace 1) and what they should move
//
// From the untraced load, using public response fields only:
//
//   - serve.queue_ms_p50, serve.queue_ms_p99 (ParseResponse.queueNs: wait
//     for the WFQ token and the worker slot) → latency_p99_ms on
//     small-mixed.
//   - serve.parse_ms_p50 (parseNs: body read, lex, encode, exec) →
//     latency_p50_ms on doc-json and doc-xml.
//   - http.overhead_ms_p50 (client latency − queueNs − parseNs) →
//     latency_p50_ms on small-mixed.
//   - runtime.allocs_per_req, runtime.gc_cycles_per_s (MemStats deltas
//     over the window) → latency_p99_ms and rss_peak_mib on small-mixed.
//   - loadgen.late_ms_p99: how long a client took from one answer to its
//     next send. The benchmark's own health, not the system's.
//
// From the traced replay, with a span around each public call:
//
//   - setup.compile_ms (lang.Language.Compile), setup.lower_ms
//     (compile.Compiled.Engine), setup.lexer_ms (lang.Language.Lexer),
//     summed over the grammar set → setup_s on small-mixed.
//   - serve.admit_ns (Server.BenchAdmitCycle) →
//     cpu_ns_per_kib and latency_p50_ms on small-mixed.
//   - lexer.ns_per_kib, lexer.tokens_per_kib
//     (TokenizeChunkInto / TokenizeResumeInto over the handler's 32 KiB
//     reads) → throughput_mib_s on doc-xml and doc-json.
//   - stream.encode_ns_per_kib (rule → machine code, as
//     stream.NewParserBackend derives it) → throughput_mib_s on doc-json.
//   - engine.ns_per_kib, engine.ns_per_token,
//     engine.epsilon_stalls_per_token (engine.Exec.FeedAll) →
//     throughput_mib_s on doc-json.
//   - stream.ns_per_kib, stream.allocs_per_doc: Write + Close on a
//     stream.Parser built the way serve builds it (engine backend,
//     SetRunner to FeedAll, EnableTelemetry).
//   - ledger.layer_sum_ns_per_kib (lexer + encode + engine) and
//     stream.unattributed_ns_per_kib (|stream − that sum|): how far the
//     ledger is from closing. The signed difference is printed beside it.
//   - serve.respond_ns (json.Marshal of serve.ParseResponse) →
//     latency_p50_ms on small-mixed.
//   - stream.checkpoint_ns (Parser.Checkpoint + MarshalBinary),
//     stream.restore_ns (UnmarshalBinary + Parser.Restore), store.save_us,
//     store.load_us (CheckpointStore.Save / Load), after every 32 KiB
//     write: the per-chunk cost of a durable session.
//
// The replay must reproduce every served answer's tokens, cycles and
// verdict, on both the layer-by-layer path and the serve-shaped
// stream.Parser; a mismatch fails the run, so a ledger that measures
// another path than the one served fails loudly. Spans are kept in
// memory and written to .bench_build/trace-<workload>.jsonl at the end.
package main
