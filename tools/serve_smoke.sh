#!/bin/sh
# Loopback serve smoke test (the serve-net-smoke ctest entry; CI runs it on
# every push). Boots dcn_serve on an ephemeral port with a reduced training
# protocol, probes it over the real socket path (health + Predict +
# PredictVerbose + trace query + metrics scrape, via `dcn_serve --probe`),
# validates a live metrics exposition with tools/promcheck.sh, then checks
# that the SIGTERM drain is clean and bounded with a stalled client attached:
# one that pipelines Metrics requests until the kernel refuses more and never
# reads a reply. The daemon must still exit 0 within its drain deadline
# (NetServer::kDrainDeadline, 2 s) plus 5 s.
#
# usage: serve_smoke.sh <path-to-dcn_serve>
set -u

bin=${1:?usage: serve_smoke.sh <path-to-dcn_serve>}
promcheck=$(dirname "$0")/promcheck.sh
log=$(mktemp)
scrape=$(mktemp)
stall_log=$(mktemp)
staller=
trap 'rm -f "$log" "$scrape" "$stall_log"; [ -n "$staller" ] && kill "$staller" 2>/dev/null' EXIT

fail() {
    echo "serve-smoke: FAIL: $1" >&2
    echo "---- daemon log ----" >&2
    cat "$log" >&2
    [ -n "${pid:-}" ] && kill -KILL "$pid" 2>/dev/null
    exit 1
}

"$bin" --port 0 --shards 2 --train 300 --test 60 --detector-sources 5 \
    >"$log" 2>&1 &
pid=$!

# Wait for the daemon to finish training and bind.
i=0
while ! grep -q "listening on port" "$log"; do
    kill -0 "$pid" 2>/dev/null || fail "daemon exited before listening"
    i=$((i + 1))
    [ "$i" -gt 300 ] && fail "daemon did not start listening in 300s"
    sleep 1
done

port=$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' "$log" | head -1)
[ -n "$port" ] || fail "could not parse the bound port"

"$bin" --probe "$port" || fail "client probe failed"

# Pull one live exposition over the wire (after the probe, so the scrape
# carries real request samples) and hold it to the OpenMetrics invariants.
"$bin" --scrape "$port" >"$scrape" || fail "metrics scrape failed"
[ -s "$scrape" ] || fail "metrics scrape returned an empty exposition"
sh "$promcheck" "$scrape" || fail "promcheck rejected the live exposition"
grep -q '^dcn_attack_positive_rate' "$scrape" ||
    fail "scrape is missing the dcn_attack_ family"

# The stalled client: Metrics frames (length 1, type 0x03) on a nonblocking
# socket until EAGAIN, kept whole across partial sends; then it stays
# connected and never reads.
python3 - "$port" >"$stall_log" 2>&1 <<'PY' &
import socket, sys, time
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
s.setblocking(False)
chunk = b"\x01\x00\x00\x00\x03" * 4096
offset = sent = 0
give_up = time.time() + 30
while sent < (64 << 20) and time.time() < give_up:
    try:
        n = s.send(chunk[offset:])
    except BlockingIOError:
        break
    sent += n
    offset = (offset + n) % len(chunk)
print("stalled after %d bytes" % sent, flush=True)
time.sleep(600)
PY
staller=$!
i=0
while ! grep -q "stalled after" "$stall_log"; do
    kill -0 "$staller" 2>/dev/null ||
        fail "stalled client died: $(cat "$stall_log")"
    i=$((i + 1))
    [ "$i" -gt 300 ] && fail "stalled client did not fill its socket in 30s"
    sleep 0.1
done

kill -TERM "$pid"
i=0
while kill -0 "$pid" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 70 ] &&
        fail "daemon did not exit within 7s of SIGTERM (stalled client attached)"
    sleep 0.1
done
wait "$pid"
rc=$?
pid=
[ "$rc" -eq 0 ] || fail "daemon exited with status $rc after SIGTERM"
grep -q "clean shutdown" "$log" || fail "daemon did not report a clean shutdown"

echo "serve-smoke: OK (port $port)"
exit 0
