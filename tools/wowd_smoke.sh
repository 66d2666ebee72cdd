#!/usr/bin/env bash
# Multi-process localhost smoke test: three wowd daemons over real UDP
# sockets must converge to one ring, report their node and UDP edge
# counters in status and in a Prometheus exposition, answer an IPOP
# ping across the overlay and count it in a well-formed exposition,
# refuse an oversize control command, drop
# control clients that hang up, keep a second daemon off a running
# one's UDP port and status socket, and exit cleanly on SIGTERM / the
# stop command.  Needs python3 for the raw socket clients.
#
# Usage: tools/wowd_smoke.sh [build-dir]   (default: ./build)
set -u

build="${1:-build}"
wowd="$build/src/apps/wowd"
wowctl="$build/tools/wowctl"
workdir="$(mktemp -d /tmp/wowd_smoke.XXXXXX)"
base_port=17101
pids=()

fail() {
  echo "FAIL: $*" >&2
  for i in 1 2 3; do
    sed 's/^/  wowd'"$i"': /' "$workdir/wowd$i.log" >&2 2>/dev/null
  done
  kill "${pids[@]}" 2>/dev/null
  rm -rf "$workdir"
  exit 1
}

[ -x "$wowd" ] || fail "$wowd not built"
[ -x "$wowctl" ] || fail "$wowctl not built"

# --- bring up three daemons ---------------------------------------------
# Node 1 is the well-known bootstrap endpoint; 2 and 3 join through it.
bootstrap="brunet.udp://127.0.0.1:$base_port"
for i in 1 2 3; do
  port=$((base_port + i - 1))
  boot_flag="--bootstrap=$bootstrap"
  [ "$i" = 1 ] && boot_flag=""   # the seed node has nobody to call
  "$wowd" --port=$port --vip=10.128.0.$i --ip=127.0.0.1 \
          --status-sock="$workdir/wowd$i.sock" --maintenance-ms=100 \
          --seed=$i $boot_flag >"$workdir/wowd$i.log" 2>&1 &
  pids[$i]=$!
done

# --- wait for one ring ---------------------------------------------------
# In a 3-node ring every node holds 2 structured-near connections: each
# node is linked to both others.  (routable() is not asserted: it wants
# a near peer on EACH ring half, which three random addresses cannot
# guarantee — at N=3 near:2 everywhere IS the single-ring condition.)
converged=0
for _ in $(seq 1 100); do
  ok=0
  for i in 1 2 3; do
    status=$("$wowctl" --sock="$workdir/wowd$i.sock" status 2>/dev/null)
    echo "$status" | grep -q '"near":2' || continue
    ok=$((ok + 1))
  done
  if [ "$ok" = 3 ]; then converged=1; break; fi
  sleep 0.2
done
[ "$converged" = 1 ] || fail "no single ring within 20s"
echo "ok: 3-daemon ring converged"

# Every pair must know each other (peers lists are consistent).
for i in 1 2 3; do
  peers=$("$wowctl" --sock="$workdir/wowd$i.sock" peers) \
    || fail "peers command failed on node $i"
  count=$(echo "$peers" | grep -o '"addr"' | wc -l)
  [ "$count" -ge 2 ] || fail "node $i sees $count peers, want >= 2"
done
echo "ok: peer tables consistent"

# --- UDP edge counters ---------------------------------------------------
# Once the ring has formed every daemon has sent and received datagrams.
for i in 1 2 3; do
  status=$("$wowctl" --sock="$workdir/wowd$i.sock" status) \
    || fail "status command failed on node $i"
  udp=$(echo "$status" | grep -o '"udp":{[^}]*}') \
    || fail "node $i status has no udp object: $status"
  echo "$udp" | grep -q '"datagrams_sent":[1-9]' \
    || fail "node $i sent no datagrams: $udp"
  echo "$udp" | grep -q '"datagrams_received":[1-9]' \
    || fail "node $i received no datagrams: $udp"
  # Every NodeStats counter is a top-level key, named after its field.
  for key in data_sent ctm_retries misbehavior_quarantines; do
    echo "$status" | grep -q "\"$key\":[0-9]" \
      || fail "node $i status has no $key: $status"
  done
done
echo "ok: node and edge counters in status ($udp)"

# --- Prometheus exposition ----------------------------------------------
# One TYPE line per family, counters typed as counters, and the edge
# counters in the registry.
prom=$("$wowctl" --sock="$workdir/wowd1.sock" metrics prom) \
  || fail "metrics prom failed on node 1"
dup=$(echo "$prom" | awk '$1 == "#" && $2 == "TYPE" {print $3}' \
      | sort | uniq -d)
[ -z "$dup" ] || fail "TYPE lines repeated for: $dup"
echo "$prom" | grep -qx '# TYPE wow_node_data_sent counter' \
  || fail "no counter TYPE line for wow_node_data_sent"
echo "$prom" | grep -q '^wow_udp_datagrams_sent{.*} [1-9]' \
  || fail "wow_udp_datagrams_sent is missing or zero"
echo "ok: metrics prom ($(echo "$prom" | grep -c '^# TYPE') families)"

# --- IPOP ping across the overlay ---------------------------------------
ping=$("$wowctl" --sock="$workdir/wowd1.sock" ping 10.128.0.3) \
  || fail "ping command failed"
echo "$ping" | grep -q '"replied":true' || fail "no ICMP reply: $ping"
echo "ok: overlay ping 10.128.0.1 -> 10.128.0.3 ($ping)"

# --- exposition format ---------------------------------------------------
# Node 1's whole exposition after the ping: every line a TYPE line or a
# sample of the family typed last, no series twice (every registration
# is its own entry, so a metric wired up twice would show here),
# counters as non-negative integers, and the IPOP tunnel's received
# count holding the ping reply.
"$wowctl" --sock="$workdir/wowd1.sock" metrics prom >"$workdir/prom.txt" \
  || fail "metrics prom failed on node 1 after the ping"
exposition=$(python3 - "$workdir/prom.txt" 2>&1 <<'PY'
import math
import re
import sys

type_line = re.compile(r"# TYPE (\w+) (counter|gauge)")
sample_line = re.compile(r'(\w+)(\{node="[^"]*",component="[^"]*"\}) '
                         r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")
family = kind = None
series = set()
received = 0.0
for line in open(sys.argv[1]).read().splitlines():
    if not line:
        sys.exit("empty line in the exposition")
    if m := type_line.fullmatch(line):
        family, kind = m.groups()
        continue
    m = sample_line.fullmatch(line)
    if m is None:
        sys.exit("malformed line: " + line)
    name, labels, text = m.groups()
    value = float(text)
    if not math.isfinite(value):
        sys.exit("value not finite: " + line)
    if name != family:
        sys.exit("sample outside its family's TYPE line: " + line)
    if (name, labels) in series:
        sys.exit("series exported twice: " + line)
    series.add((name, labels))
    if kind == "counter" and (value < 0 or value != int(value)):
        sys.exit("counter not a non-negative integer: " + line)
    if name == "wow_ipop_received":
        received += value
if received < 1:
    sys.exit("wow_ipop_received is %g after the ping, want >= 1" % received)
print("%d series" % len(series))
PY
) || fail "node 1 exposition: $exposition"
echo "ok: exposition well formed ($exposition)"

# --- oversize control command -------------------------------------------
# 64 KiB with no newline: the daemon must answer with an error and drop
# the client instead of buffering it, and keep serving other clients.
oversize=$(python3 - "$workdir/wowd2.sock" <<'PY'
import socket
import sys

s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.settimeout(5)  # a daemon that buffers without limit never answers
s.connect(sys.argv[1])
try:
    s.sendall(b"x" * 65536)
except OSError:
    pass  # dropped mid-write: the reply is still queued
reply = b""
try:
    while chunk := s.recv(4096):
        reply += chunk
except OSError:
    pass
print(reply.decode(errors="replace").strip())
PY
) || fail "oversize client failed"
[ "$oversize" = '{"error":"command too long"}' ] \
  || fail "oversize command got: $oversize"
"$wowctl" --sock="$workdir/wowd2.sock" status >/dev/null \
  || fail "status failed after the oversize command"
echo "ok: 64 KiB command refused, daemon still answers"

# --- clients that hang up -----------------------------------------------
# A client that closes with no command, or right after one, is dropped:
# kept, its fd would stay readable at EOF and spin the daemon's loop.
fds_before=$(ls "/proc/${pids[2]}/fd" | wc -l)
python3 - "$workdir/wowd2.sock" <<'PY' || fail "hang-up client failed"
import socket
import sys

for command in (b"", b"ping 10.128.0.3\n"):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(sys.argv[1])
    s.sendall(command)
    s.close()
PY
sleep 0.5
fds_after=$(ls "/proc/${pids[2]}/fd" | wc -l)
[ "$fds_after" = "$fds_before" ] \
  || fail "node 2 holds $((fds_after - fds_before)) hung-up clients"
echo "ok: hung-up control clients dropped"

# --- no takeover of a running daemon ------------------------------------
# A second wowd on node 1's UDP port, and one on node 1's status socket,
# must each exit 1 within 2 s; node 1 must still answer afterwards.
timeout 2 "$wowd" --port=$base_port --vip=10.128.0.9 --ip=127.0.0.1 \
        --status-sock="$workdir/extra.sock" --seed=9 \
        >"$workdir/extra.log" 2>&1
rc=$?
[ "$rc" = 1 ] || fail "wowd on a taken port exited $rc, want 1:
$(cat "$workdir/extra.log")"
timeout 2 "$wowd" --port=$((base_port + 9)) --vip=10.128.0.10 \
        --ip=127.0.0.1 --status-sock="$workdir/wowd1.sock" --seed=10 \
        >"$workdir/extra.log" 2>&1
rc=$?
[ "$rc" = 1 ] || fail "wowd on a live status socket exited $rc, want 1:
$(cat "$workdir/extra.log")"
status=$("$wowctl" --sock="$workdir/wowd1.sock" status) \
  || fail "node 1 stopped answering after the takeover attempts"
echo "$status" | grep -q '"vip":"10.128.0.1"' \
  || fail "node 1's status socket answers for another daemon: $status"
echo "ok: port and status socket of a running daemon refused"

# --- graceful shutdown ---------------------------------------------------
# Node 3 stops by command, 1 and 2 by SIGTERM; all must exit 0 promptly.
"$wowctl" --sock="$workdir/wowd3.sock" stop >/dev/null \
  || fail "stop command failed"
kill -TERM "${pids[1]}" "${pids[2]}"
for i in 1 2 3; do
  deadline=$((SECONDS + 10))
  while kill -0 "${pids[$i]}" 2>/dev/null; do
    [ "$SECONDS" -lt "$deadline" ] || fail "wowd$i did not exit"
    sleep 0.1
  done
  wait "${pids[$i]}"
  rc=$?
  [ "$rc" = 0 ] || fail "wowd$i exited with $rc"
done
echo "ok: clean shutdown (stop command + SIGTERM)"

rm -rf "$workdir"
echo "PASS: wowd smoke"
