#!/bin/sh
# Cluster smoke test (make smoke-cluster): boot three rallocd backends
# and a rallocproxy over them, prove content-keyed routing (warm cache
# hits through the proxy), then SIGKILL the backend that owns the
# workload mid-load and require zero contract violations — every answer
# 200 or 429, every 200 verified — while the proxy fails the traffic
# over. The dead backend is restarted and the proxy's breaker counters
# must show the full recovery arc (open, half-open, closed). Ends with
# a clean cluster drain: proxy first, then the surviving backends, all
# exiting 0. Uses rallocload as the only HTTP client so the test needs
# nothing outside the repo and the go toolchain.
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
pid1="" pid2="" pid3="" proxypid=""
cleanup() {
    for p in "$pid1" "$pid2" "$pid3" "$proxypid"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    if [ -n "${SMOKE_LOG_DIR:-}" ]; then
        mkdir -p "$SMOKE_LOG_DIR/cluster"
        cp "$tmp"/*.log "$tmp"/*.json "$tmp"/*.stderr "$SMOKE_LOG_DIR/cluster/" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/rallocd" ./cmd/rallocd
go build -o "$tmp/rallocproxy" ./cmd/rallocproxy
go build -o "$tmp/rallocload" ./cmd/rallocload

start_backend() { # $1 = instance name, $2 = addr (empty = ephemeral)
    addr=${2:-127.0.0.1:0}
    "$tmp/rallocd" -addr "$addr" -addr-file "$tmp/$1.addr" -instance-id "$1" \
        -drain-timeout 10s 2>>"$tmp/$1.log" &
}

await_file() { # $1 = path
    i=0
    while [ ! -s "$1" ] && [ $i -lt 100 ]; do
        i=$((i + 1))
        sleep 0.1
    done
    if [ ! -s "$1" ]; then
        echo "cluster_smoke: $1 never appeared" >&2
        cat "$tmp"/*.log >&2 || true
        exit 1
    fi
}

start_backend b1; pid1=$!
start_backend b2; pid2=$!
start_backend b3; pid3=$!
await_file "$tmp/b1.addr"; a1=$(cat "$tmp/b1.addr")
await_file "$tmp/b2.addr"; a2=$(cat "$tmp/b2.addr")
await_file "$tmp/b3.addr"; a3=$(cat "$tmp/b3.addr")

"$tmp/rallocproxy" -addr 127.0.0.1:0 -addr-file "$tmp/proxy.addr" \
    -backends "http://$a1,http://$a2,http://$a3" \
    -probe-interval 100ms -breaker-threshold 2 -breaker-cooldown 500ms \
    -drain-timeout 10s 2>"$tmp/proxy.log" &
proxypid=$!
await_file "$tmp/proxy.addr"
paddr=$(cat "$tmp/proxy.addr")

# Phase 1: load through the proxy. The single workload key must route
# stickily to its ring owner, so repeat requests serve from that
# backend's cache — locality through the proxy, asserted with
# -require-cache-hits. Any non-200/429 or unverified 200 fails here.
"$tmp/rallocload" -url "http://$paddr" -input testdata/sumabs.iloc \
    -wait-ready 10s -requests 20 -c 2 \
    -expect-verified -retry-429 3 -require-cache-hits 1 \
    -out "$tmp/cluster_phase1.json"

# The report's per-backend attribution tells us which instance owns the
# workload — the victim worth killing.
victim=$(grep -o '"b[0-9]"' "$tmp/cluster_phase1.json" | head -1 | tr -d '"')
if [ -z "$victim" ]; then
    echo "cluster_smoke: no backend attribution in the report:" >&2
    cat "$tmp/cluster_phase1.json" >&2
    exit 1
fi
case "$victim" in
b1) vpid=$pid1 vaddr=$a1 ;;
b2) vpid=$pid2 vaddr=$a2 ;;
b3) vpid=$pid3 vaddr=$a3 ;;
*)
    echo "cluster_smoke: unexpected victim $victim" >&2
    exit 1
    ;;
esac
echo "cluster_smoke: workload owner is $victim (pid $vpid) — killing it mid-load"

# Phase 2: chaos. Load runs for 6s; one second in, the owner dies with
# SIGKILL (no drain, no goodbye). The proxy must fail over: rallocload
# exits nonzero on any non-200/429 answer or unverified 200.
"$tmp/rallocload" -url "http://$paddr" -input testdata/sumabs.iloc \
    -duration 6s -c 4 -expect-verified -retry-429 5 \
    -out "$tmp/cluster_chaos.json" 2>"$tmp/chaos.stderr" &
loadpid=$!
sleep 1
kill -KILL "$vpid"
case "$victim" in
b1) pid1="" ;;
b2) pid2="" ;;
b3) pid3="" ;;
esac
if ! wait "$loadpid"; then
    echo "cluster_smoke: contract violated while $victim was down:" >&2
    cat "$tmp/chaos.stderr" >&2
    exit 1
fi

# Restart the victim on its old address; the proxy's probes must walk
# its breaker open -> half-open -> closed without client traffic.
start_backend "$victim" "$vaddr"
case "$victim" in
b1) pid1=$! ;;
b2) pid2=$! ;;
b3) pid3=$! ;;
esac
sleep 2

# Post-recovery load: everything verified again, and the scraped proxy
# counters must show the breaker observably opened during the kill and
# recovered after the restart.
"$tmp/rallocload" -url "http://$paddr" -input testdata/sumabs.iloc \
    -requests 10 -c 2 -expect-verified -retry-429 3 \
    -out "$tmp/cluster_post.json"
for metric in proxy.breaker.open proxy.breaker.half_open proxy.breaker.closed; do
    if ! grep -Eq "\"$metric\": [1-9]" "$tmp/cluster_post.json"; then
        echo "cluster_smoke: breaker never reached state '$metric':" >&2
        grep '"proxy\.' "$tmp/cluster_post.json" >&2 || cat "$tmp/cluster_post.json" >&2
        exit 1
    fi
done

# Cluster drain: the proxy stops advertising and finishes in-flight
# work, then each backend drains; every process must exit 0.
kill -TERM "$proxypid"
if ! wait "$proxypid"; then
    echo "cluster_smoke: rallocproxy exited nonzero on SIGTERM" >&2
    cat "$tmp/proxy.log" >&2
    exit 1
fi
proxypid=""
for name in b1 b2 b3; do
    case "$name" in
    b1) p=$pid1 ;;
    b2) p=$pid2 ;;
    b3) p=$pid3 ;;
    esac
    [ -n "$p" ] || continue
    kill -TERM "$p"
    if ! wait "$p"; then
        echo "cluster_smoke: $name exited nonzero on SIGTERM" >&2
        cat "$tmp/$name.log" >&2
        exit 1
    fi
    case "$name" in
    b1) pid1="" ;;
    b2) pid2="" ;;
    b3) pid3="" ;;
    esac
done
echo "cluster_smoke: ok (owner $victim killed and recovered, contract held, clean drain)"
