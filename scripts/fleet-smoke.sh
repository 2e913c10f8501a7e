#!/bin/sh
# fleet-smoke: boot a real 3-node aspend fleet plus the aspen-router
# front tier, then exercise the fleet contract end to end: routed
# parses, an admin mutation fanned out to every node's journal, a
# durable session streamed through the router, SIGKILL of the
# session's owner mid-stream with the conclusion served byte-identically
# by a survivor, membership reconvergence (degraded → ok after the dead
# node restarts on its journal), and a graceful router shutdown.
# Exercises the real binaries across real process boundaries, which the
# in-process internal/fleet tests cannot.
set -eu

GO=${GO:-go}
workdir=$(mktemp -d)
pids=""
cleanup() {
    for pid in $pids; do
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "fleet-smoke: FAIL: $1" >&2
    for f in "$workdir"/*.log; do
        echo "--- $f ---" >&2
        cat "$f" >&2 || true
    done
    exit 1
}

get() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$@"
    else
        fail "curl not available"
    fi
}

# wait_addr LOG PREFIX PID: poll a daemon log for its announced address.
# The backgrounded daemon may not have created its log yet, so a missing
# log reads as "not announced yet"; a daemon that has exited fails at
# once.
wait_addr() {
    addr=""
    for _ in $(seq 1 100); do
        if [ -f "$1" ]; then
            addr=$(sed -n "s#^$2: listening on http://##p" "$1")
            [ -n "$addr" ] && return 0
        fi
        kill -0 "$3" 2>/dev/null || fail "$2 exited before announcing its address (log $1)"
        sleep 0.1
    done
    fail "$2 never announced its address (log $1)"
}

# wait_health URL PATTERN WHAT: poll /healthz until it matches.
wait_health() {
    for _ in $(seq 1 200); do
        if h=$(get "$1/healthz" 2>/dev/null) && echo "$h" | grep -q "$2"; then
            return 0
        fi
        sleep 0.1
    done
    fail "timed out waiting for $3 (last health: ${h:-unreachable})"
}

normalize() {
    # Strip per-request timings and session bookkeeping; lexScanCycles
    # varies with chunk boundaries so whole-vs-chunked comparisons drop
    # it too.
    grep -v 'queueNs\|parseNs\|lexScanCycles\|"session"\|"partial"'
}

doc='{"smoke": [1, 2, {"ok": true}], "pad": "abcdefghijklmnopqrstuvwxyz"}'
half=$(printf '%s' "$doc" | head -c 30)
rest=$(printf '%s' "$doc" | tail -c +31)

echo "fleet-smoke: building aspend + aspen-router"
$GO build -o "$workdir/aspend" ./cmd/aspend
$GO build -o "$workdir/aspen-router" ./cmd/aspen-router

# Boot three durable nodes.
nodes=""
i=1
while [ "$i" -le 3 ]; do
    "$workdir/aspend" -addr 127.0.0.1:0 -langs JSON,XML \
        -state-dir "$workdir/state$i" 2> "$workdir/node$i.log" &
    pids="$pids $!"
    eval "node${i}_pid=$!"
    wait_addr "$workdir/node$i.log" aspend "$!"
    eval "node${i}_addr=\$addr"
    nodes="$nodes,$addr"
    i=$((i + 1))
done
nodes=${nodes#,}

"$workdir/aspen-router" -addr 127.0.0.1:0 -nodes "$nodes" \
    -probe-interval 100ms -retry-backoff 10ms 2> "$workdir/router.log" &
router_pid=$!
pids="$pids $router_pid"
wait_addr "$workdir/router.log" aspen-router "$!"
router="http://$addr"
wait_health "$router" '"status":"ok"' "initial fleet convergence"
echo "fleet-smoke: router up on $router over 3 nodes"

# Routed parse.
whole=$(printf '%s' "$doc" |
    get -X POST --data-binary @- "$router/v1/parse/JSON") ||
    fail "routed parse failed"
echo "$whole" | grep -q '"accepted": true' || fail "routed parse not accepted: $whole"
want=$(echo "$whole" | normalize)

# Admin fanout: every node journals the mutation; the fleet stays
# converged.
fanout=$(get -X POST -d '{"op":"add","grammar":"DOT"}' "$router/v1/admin/grammars") ||
    fail "admin fanout failed"
echo "$fanout" | grep -q '"ok":true' || fail "admin fanout not ok on every node: $fanout"
wait_health "$router" '"registry_converged":true' "post-fanout convergence"

# Router metrics surface: phase histograms and per-node series exist.
metrics=$(get "$router/metrics") || fail "router /metrics unreachable"
echo "$metrics" | grep -q 'fleet_phase_ns_bucket{phase="forward",le="' ||
    fail "router /metrics missing fleet_phase_ns{phase=...}"
echo "$metrics" | grep -q 'fleet_node_unhealthy_total{node="' ||
    fail "router /metrics missing fleet_node_unhealthy_total{node=...}"
# Overload/gray-failure surfaces: the per-node gray gauge and the hedge
# resolution counters are registered even before they first move.
echo "$metrics" | grep -q 'fleet_node_gray{node="' ||
    fail "router /metrics missing fleet_node_gray{node=...}"
echo "$metrics" | grep -q 'hedge_total{outcome="win"}' ||
    fail "router /metrics missing hedge_total{outcome=...}"

# Durable session through the router; find and SIGKILL its owner.
printf '%s' "$half" |
    get -X POST --data-binary @- "$router/v1/parse/JSON?session=smoke" >/dev/null ||
    fail "session chunk failed"
owner=$(get "$router/healthz" | sed -n 's#.*"JSON/smoke": *"\([^"]*\)".*#\1#p')
[ -n "$owner" ] || fail "router /healthz lists no owner for the session"
owner_pid=""
owner_idx=""
i=1
while [ "$i" -le 3 ]; do
    eval "a=\$node${i}_addr"
    if [ "$a" = "$owner" ]; then
        eval "owner_pid=\$node${i}_pid"
        owner_idx=$i
    fi
    i=$((i + 1))
done
[ -n "$owner_pid" ] || fail "session owner $owner is not a fleet node"
echo "fleet-smoke: killing session owner $owner (pid $owner_pid)"
kill -9 "$owner_pid"
j=0
while kill -0 "$owner_pid" 2>/dev/null; do
    j=$((j + 1))
    [ "$j" -gt 100 ] && fail "owner did not die after SIGKILL"
    sleep 0.1
done

# The conclusion fails over to a survivor, byte-identical to the
# uninterrupted whole-document answer (modulo chunk-seam scan cycles).
final=$(printf '%s' "$rest" |
    get -X POST --data-binary @- "$router/v1/parse/JSON?session=smoke&final=1") ||
    fail "post-kill session conclusion failed"
echo "$final" | grep -q '"accepted": true' || fail "failover conclusion rejected: $final"
got=$(echo "$final" | normalize)
[ "$want" = "$got" ] || fail "failover answer differs from uninterrupted parse:
--- want
$want
--- got
$got"
wait_health "$router" '"status":"degraded"' "degraded health after kill"
echo "fleet-smoke: session failed over byte-identically; fleet degraded as expected"

# Restart the dead node on its journal and address: the fleet
# reconverges to ok with the fanned-out grammar intact.
"$workdir/aspend" -addr "$owner" -langs JSON,XML \
    -state-dir "$workdir/state$owner_idx" 2> "$workdir/node-revived.log" &
pids="$pids $!"
wait_addr "$workdir/node-revived.log" aspend "$!"
grep -q 'replayed' "$workdir/node-revived.log" ||
    fail "revived node did not replay its journal"
wait_health "$router" '"status":"ok"' "reconvergence after restart"
wait_health "$router" '"registry_converged":true' "registry reconvergence"

echo "fleet-smoke: reconverged; shutting the router down"
kill -TERM "$router_pid"
j=0
while kill -0 "$router_pid" 2>/dev/null; do
    j=$((j + 1))
    [ "$j" -gt 100 ] && fail "router did not exit after SIGTERM"
    sleep 0.1
done
grep -q "aspen-router: stopped" "$workdir/router.log" ||
    fail "router shutdown message missing"
echo "fleet-smoke: PASS"
