#!/bin/sh
# overload-smoke: boot a real 2-node aspend fleet — one node healthy,
# one made gray-slow with the latency fault injector — put the hedging
# router in front, then flood one tenant (JSON) directly at both nodes
# while a quiet tenant (XML) keeps parsing through the router. The
# overload contract, on real binaries across real process boundaries:
# the quiet tenant is never shed and its worst latency stays bounded,
# the flooding tenant sees only 200s and 429-with-Retry-After (zero
# non-shed errors), the overload metric surfaces exist and move
# (shed_total, limit_current, tenant_queue_depth, fault_delays_total,
# hedge_total, fleet_node_gray), and the admin weight override fans
# out. Exercises -latency-target/-gray-rate/-gray-delay on aspend and
# -hedge/-gray-min-samples on aspen-router.
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
    echo "overload-smoke: FAIL: $1" >&2
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

wait_health() {
    for _ in $(seq 1 200); do
        if h=$(get "$1/healthz" 2>/dev/null) && echo "$h" | grep -q "$2"; then
            return 0
        fi
        sleep 0.1
    done
    fail "timed out waiting for $3 (last health: ${h:-unreachable})"
}

quiet_doc='<root><item id="a">text</item><item id="b">more</item></root>'
hot="$workdir/hot.json"
{
    printf '{"k": ['
    i=0
    while [ "$i" -lt 128 ]; do
        printf '[1, "x", true], '
        i=$((i + 1))
    done
    printf '0]}'
} > "$hot"

echo "overload-smoke: building aspend + aspen-router"
$GO build -o "$workdir/aspend" ./cmd/aspend
$GO build -o "$workdir/aspen-router" ./cmd/aspen-router

# Node 1: healthy. Node 2: gray-slow — correct answers, injected
# latency stalls inside the parse. Both hold each tenant to one
# request, running or waiting (-workers 1 -queue -1), so the flood
# overruns admission, and an explicit -latency-target arms the AIMD
# limiter's gauge.
"$workdir/aspend" -addr 127.0.0.1:0 -langs JSON,XML \
    -workers 1 -queue -1 -latency-target 250ms 2> "$workdir/node1.log" &
pids="$pids $!"
wait_addr "$workdir/node1.log" aspend "$!"
node1=$addr

"$workdir/aspend" -addr 127.0.0.1:0 -langs JSON,XML \
    -workers 1 -queue -1 -latency-target 250ms \
    -gray-rate 0.05 -gray-delay 2ms 2> "$workdir/node2.log" &
pids="$pids $!"
wait_addr "$workdir/node2.log" aspend "$!"
node2=$addr

"$workdir/aspen-router" -addr 127.0.0.1:0 -nodes "$node1,$node2" \
    -hedge -gray-min-samples 4 \
    -probe-interval 100ms -retry-backoff 10ms 2> "$workdir/router.log" &
router_pid=$!
pids="$pids $router_pid"
wait_addr "$workdir/router.log" aspen-router "$!"
router="http://$addr"
wait_health "$router" '"status":"ok"' "initial fleet convergence"
echo "overload-smoke: router up on $router (node1 $node1, node2 gray-slow $node2)"

# Unloaded sanity: the quiet tenant parses through the router.
for i in 1 2 3 4 5; do
    out=$(printf '%s' "$quiet_doc" |
        get -X POST --data-binary @- "$router/v1/parse/XML") ||
        fail "unloaded quiet parse $i failed"
    echo "$out" | grep -q '"accepted": true' || fail "quiet document rejected: $out"
done

# The storm: six workers per node flood the JSON tenant directly at
# both nodes (saturating the fleet no matter how the router places),
# logging every status code.
echo "overload-smoke: flooding JSON at both nodes, probing XML through the router"
w=0
for node in "$node1" "$node2"; do
    for _ in 1 2 3 4 5 6; do
        w=$((w + 1))
        (
            while [ ! -f "$workdir/stop" ]; do
                curl -s -o /dev/null -w '%{http_code}\n' -X POST \
                    --data-binary @"$hot" "http://$node/v1/parse/JSON" \
                    >> "$workdir/flood.$w" 2>/dev/null || true
            done
        ) &
        pids="$pids $!"
    done
done

# Quiet tenant under load: 20 sequential parses through the router.
# Every one must answer 200; the slowest (≈ p99 of this sample) must
# stay within a generous real-binary bound.
: > "$workdir/quiet.codes"
: > "$workdir/quiet.times"
i=0
while [ "$i" -lt 20 ]; do
    i=$((i + 1))
    printf '%s' "$quiet_doc" |
        curl -s -o /dev/null -w '%{http_code} %{time_total}\n' -X POST \
            --data-binary @- "$router/v1/parse/XML" >> "$workdir/quiet.out" ||
        fail "quiet probe $i died under load"
done
touch "$workdir/stop"
sleep 0.5

while read -r code t; do
    echo "$code" >> "$workdir/quiet.codes"
    echo "$t" >> "$workdir/quiet.times"
done < "$workdir/quiet.out"
if grep -qv '^200$' "$workdir/quiet.codes"; then
    fail "quiet tenant shed under load: $(sort "$workdir/quiet.codes" | uniq -c | tr '\n' ' ')"
fi
worst=$(sort -g "$workdir/quiet.times" | tail -1)
awk "BEGIN { exit !($worst < 5.0) }" ||
    fail "quiet tenant worst latency ${worst}s under load (bound 5s)"

# The flood saw only service (200) and sheds (429): zero non-shed
# errors on a healthy-but-overloaded fleet.
cat "$workdir"/flood.* > "$workdir/flood.all" 2>/dev/null || true
[ -s "$workdir/flood.all" ] || fail "flood produced no responses"
sheds=$(grep -c '^429$' "$workdir/flood.all" || true)
bad=$(grep -cv '^200$\|^429$' "$workdir/flood.all" || true)
[ "$bad" = "0" ] || fail "flood saw $bad non-shed errors: $(sort "$workdir/flood.all" | uniq -c | tr '\n' ' ')"
[ "$sheds" -gt 0 ] || fail "flood never shed — the fleet was not overloaded"
echo "overload-smoke: quiet tenant clean (worst ${worst}s); flood shed $sheds request(s), zero non-shed errors"

# Overload metric surfaces, node side: sheds by reason, the AIMD gauge,
# the tenant backlog gauge, and injected stalls on the gray node.
m1=$(get "http://$node1/metrics") || fail "node1 /metrics unreachable"
m2=$(get "http://$node2/metrics") || fail "node2 /metrics unreachable"
printf '%s\n%s\n' "$m1" "$m2" | grep -q '^shed_total{reason="queue"} [1-9]' ||
    fail "no node reports shed_total{reason=queue} > 0"
echo "$m1" | grep -q '^limit_current ' || fail "node /metrics missing limit_current"
echo "$m1" | grep -q 'tenant_queue_depth{grammar="JSON"}' ||
    fail "node /metrics missing tenant_queue_depth{grammar=...}"
echo "$m2" | grep -q '^serve_JSON_fault_delays_total [1-9]' ||
    fail "gray node reports no injected latency stalls"

# Router side: the gray gauge exists per node, and the hedge counters
# are registered (a fired hedge is load-dependent; the series existing
# is the contract).
rm=$(get "$router/metrics") || fail "router /metrics unreachable"
echo "$rm" | grep -q 'fleet_node_gray{node="' ||
    fail "router /metrics missing fleet_node_gray{node=...}"
echo "$rm" | grep -q 'hedge_total{outcome="win"}' ||
    fail "router /metrics missing hedge_total{outcome=...}"

# Cost-weight override fans out through the admin API like any other
# registry mutation.
wresp=$(get -X POST -d '{"op":"weight","grammar":"JSON","weight":9}' \
    "$router/v1/admin/grammars") || fail "admin weight op failed"
echo "$wresp" | grep -q '"ok":true' || fail "weight op not ok on every node: $wresp"

kill -TERM "$router_pid"
j=0
while kill -0 "$router_pid" 2>/dev/null; do
    j=$((j + 1))
    [ "$j" -gt 100 ] && fail "router did not exit after SIGTERM"
    sleep 0.1
done
echo "overload-smoke: PASS"
