#!/bin/sh
# serve-smoke: boot cmd/aspend on an ephemeral port, push one document
# through the live service, check the health and metrics surfaces, then
# exercise the durability contract: admin-load an extra grammar, kill
# the daemon with SIGKILL, restart it on the same -state-dir with
# contradicting flags, and require the journaled registry and
# byte-identical answers to come back. Finally shut down gracefully
# (SIGTERM → drain). Exercises the real binary end to end, which unit
# tests against serve.Server's handler cannot.
set -eu

GO=${GO:-go}
workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
    if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill -9 "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

log="$workdir/aspend.log"
fail() {
    echo "serve-smoke: FAIL: $1" >&2
    echo "--- aspend stderr ---" >&2
    cat "$log" >&2 || true
    exit 1
}

get() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$@"
    else
        fail "curl not available"
    fi
}

# wait_up: poll the daemon's log for its announced address, then poll
# /healthz until it answers. Sets $addr.
wait_up() {
    addr=""
    for _ in $(seq 1 50); do
        # The backgrounded daemon may not have created its log yet.
        if [ -f "$log" ]; then
            addr=$(sed -n 's#^aspend: listening on http://##p' "$log")
            [ -n "$addr" ] && break
        fi
        kill -0 "$daemon_pid" 2>/dev/null || fail "daemon exited during startup"
        sleep 0.1
    done
    [ -n "$addr" ] || fail "daemon never announced its address"
    health=""
    for _ in $(seq 1 50); do
        if health=$(get "http://$addr/healthz" 2>/dev/null) && [ -n "$health" ]; then
            break
        fi
        health=""
        kill -0 "$daemon_pid" 2>/dev/null || fail "daemon exited before /healthz answered"
        sleep 0.1
    done
    [ -n "$health" ] || fail "/healthz never became reachable"
}

# normalize: strip the per-request timing fields so answers from
# different runs can be compared byte for byte.
normalize() {
    grep -v 'queueNs\|parseNs'
}

doc='{"smoke": [1, 2, {"ok": true}]}'

echo "serve-smoke: building aspend"
$GO build -o "$workdir/aspend" ./cmd/aspend

"$workdir/aspend" -addr 127.0.0.1:0 -langs JSON,XML \
    -state-dir "$workdir/state" 2> "$log" &
daemon_pid=$!
wait_up
echo "serve-smoke: daemon up on $addr"
echo "$health" | grep -q '"status": "ok"' || fail "/healthz not ok: $health"
echo "$health" | grep -q '"JSON"' || fail "/healthz missing JSON grammar"

parse=$(printf '%s' "$doc" |
    get -X POST --data-binary @- "http://$addr/v1/parse/JSON") ||
    fail "parse request failed"
echo "$parse" | grep -q '"accepted": true' || fail "document not accepted: $parse"
before=$(echo "$parse" | normalize)

metrics=$(get "http://$addr/metrics") || fail "/metrics unreachable"
echo "$metrics" | grep -q '^serve_requests_total 1$' ||
    fail "/metrics missing serve_requests_total 1"
echo "$metrics" | grep -q 'serve_phase_ns_bucket{grammar="JSON",phase="parse",le="' ||
    fail "/metrics missing per-phase latency histograms"
# Every unguarded parse runs on the lowered engine: JSON reports its
# table footprint, and no simulator-fallback series is exported.
grammars=$(get "http://$addr/v1/grammars") || fail "/v1/grammars unreachable"
json_table=$(echo "$grammars" |
    awk '/"name": "JSON"/ { g = 1 } g && /"engineTableKB":/ { print; exit }')
echo "$json_table" | grep -q '"engineTableKB": [1-9]' ||
    fail "/v1/grammars does not report a JSON engine table size: $json_table"
if echo "$metrics" | grep -q '^engine_'; then
    fail "/metrics still exports an engine_* series"
fi
# Overload-control surfaces: sheds by reason, the AIMD concurrency
# gauge, and the per-tenant weighted-fair backlog gauge.
echo "$metrics" | grep -q '^shed_total{reason="queue"} ' ||
    fail "/metrics missing shed_total{reason=...}"
echo "$metrics" | grep -q '^limit_current ' ||
    fail "/metrics missing limit_current"
echo "$metrics" | grep -q '^tenant_queue_depth{grammar="JSON"} ' ||
    fail "/metrics missing tenant_queue_depth{grammar=...}"
code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST -d x \
    "http://$addr/v1/parse/NoSuch") || fail "404 probe failed"
[ "$code" = "404" ] || fail "unknown grammar answered $code, want 404"

# Trace round-trip: every response carries X-Aspen-Trace, and the ID
# retrieves the request's record from the flight recorder.
trace=$(printf '%s' "$doc" |
    curl -fsS -D - -o /dev/null -X POST --data-binary @- \
        "http://$addr/v1/parse/JSON" |
    sed -n 's/^[Xx]-[Aa]spen-[Tt]race: *//p' | tr -d '\r') ||
    fail "traced parse request failed"
[ -n "$trace" ] || fail "parse response missing X-Aspen-Trace header"
flight=$(get "http://$addr/v1/debug/requests?trace=$trace") ||
    fail "/v1/debug/requests unreachable"
echo "$flight" | grep -q "\"$trace\"" ||
    fail "flight recorder has no record for trace $trace: $flight"
echo "$flight" | grep -q '"grammar": "JSON"' ||
    fail "flight record for $trace missing grammar: $flight"

# Registry mutation that exists only in the journal: MiniC is loaded
# over the admin API, never on the command line.
admin=$(get -X POST -d '{"op":"add","grammar":"MiniC"}' \
    "http://$addr/v1/admin/grammars") || fail "admin add MiniC failed"
echo "$admin" | grep -q '"MiniC"' || fail "admin add response missing MiniC: $admin"

# Tenant upload: the (ab)* machine in the .pda format is admitted with a
# proven stack bound of 1, journaled, and served immediately.
upload_body='{"op":"upload","grammar":"alt","format":"pda","source":"[States]\nq0 q1\nEnd\n[Sigma]\na b\nEnd\n[Stack Sigma]\nA\nEnd\n[Rules]\nq0, a, epsilon, A, q1\nq1, b, A, epsilon, q0\nEnd\n[Start]\nq0\nEnd\n[Accept]\nq0\nEnd\n"}'
upload=$(get -X POST -d "$upload_body" "http://$addr/v1/admin/grammars") ||
    fail "tenant upload failed"
echo "$upload" | grep -q '"admitted": true' || fail "upload not admitted: $upload"
echo "$upload" | grep -q '"stackBound": 1' || fail "upload missing proven bound: $upload"
uparse=$(printf 'abab' |
    get -X POST --data-binary @- "http://$addr/v1/parse/alt") ||
    fail "parse on uploaded machine failed"
echo "$uparse" | grep -q '"accepted": true' || fail "uploaded machine rejected abab: $uparse"
ubefore=$(echo "$uparse" | normalize)

# Hostile upload: an unbounded-depth machine must be rejected 422 with a
# machine-readable diagnostic naming the depth check, and serving must
# be unaffected.
hostile_body='{"op":"upload","grammar":"bad","format":"pda","source":"[States]\nq0 q1\nEnd\n[Sigma]\na b\nEnd\n[Stack Sigma]\nA\nEnd\n[Rules]\nq0, a, epsilon, A, q0\nq0, b, A, epsilon, q1\nq1, b, A, epsilon, q1\nEnd\n[Start]\nq0\nEnd\n[Accept]\nq1\nEnd\n"}'
hostile_code=$(curl -sS -o "$workdir/hostile.json" -w '%{http_code}' -X POST \
    -d "$hostile_body" "http://$addr/v1/admin/grammars") || fail "hostile upload probe failed"
[ "$hostile_code" = "422" ] || fail "hostile upload answered $hostile_code, want 422"
grep -q '"check": "depth"' "$workdir/hostile.json" ||
    fail "hostile rejection missing depth diagnostic: $(cat "$workdir/hostile.json")"

# Admission telemetry: per-format admit counter, per-check reject
# counter, and the admission phase in the span histograms.
metrics=$(get "http://$addr/metrics") || fail "/metrics unreachable after upload"
echo "$metrics" | grep -q '^admit_admitted_total{format="pda"} 1$' ||
    fail "/metrics missing admit_admitted_total{format=pda}"
echo "$metrics" | grep -q '^admit_rejected_total{check="depth"} 1$' ||
    fail "/metrics missing admit_rejected_total{check=depth}"
echo "$metrics" | grep -q 'serve_phase_ns_bucket{grammar="alt",phase="admit",le="' ||
    fail "/metrics missing admission phase histogram"

echo "serve-smoke: parse + health + metrics + admin + upload ok; kill -9"
kill -9 "$daemon_pid"
i=0
while kill -0 "$daemon_pid" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "daemon did not die after SIGKILL"
    sleep 0.1
done

# Restart on the same state dir with contradicting flags: the journal
# must win (-langs XML alone would drop JSON and MiniC).
log="$workdir/aspend2.log"
"$workdir/aspend" -addr 127.0.0.1:0 -langs XML \
    -state-dir "$workdir/state" -metrics "$workdir/metrics.json" 2> "$log" &
daemon_pid=$!
wait_up
echo "serve-smoke: daemon restarted on $addr"
grep -q 'replayed' "$log" || fail "restart did not replay the journal"
echo "$health" | grep -q '"JSON"' || fail "journaled JSON grammar lost across kill -9"
echo "$health" | grep -q '"MiniC"' || fail "admin-loaded MiniC lost across kill -9"
echo "$health" | grep -q '"alt"' || fail "tenant upload lost across kill -9"

after=$(printf '%s' "$doc" |
    get -X POST --data-binary @- "http://$addr/v1/parse/JSON" | normalize) ||
    fail "post-restart parse failed"
[ "$before" = "$after" ] || fail "answers differ across kill -9:
--- before
$before
--- after
$after"

# The journaled upload is re-admitted from its recorded source on boot
# and answers byte-identically.
uafter=$(printf 'abab' |
    get -X POST --data-binary @- "http://$addr/v1/parse/alt" | normalize) ||
    fail "post-restart parse on uploaded machine failed"
[ "$ubefore" = "$uafter" ] || fail "uploaded machine answers differ across kill -9:
--- before
$ubefore
--- after
$uafter"

echo "serve-smoke: crash recovery ok; draining"
kill -TERM "$daemon_pid"
i=0
while kill -0 "$daemon_pid" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "daemon did not exit after SIGTERM"
    sleep 0.1
done
grep -q "aspend: drained" "$log" || fail "no drain message on shutdown"
# The -metrics snapshot is written on clean exit.
grep -q "serve_requests_total" "$workdir/metrics.json" ||
    fail "-metrics snapshot missing serve counters"
daemon_pid=""
echo "serve-smoke: PASS"
