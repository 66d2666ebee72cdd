#!/usr/bin/env bash
# The command-line contract every binary gets from tools/tool_flags.h:
# --help exits 0 and prints the usage; an unknown flag exits 2, names
# the flag and prints nothing to stdout, so no experiment has started.
# wowd (the first argument) must also refuse a port outside 1-65535 or
# with trailing bytes, on the command line and in a --config file.
#
# Usage: tests/flag_contract.sh <wowd> <binary>...
set -u

wowd="$1"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
failures=0
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

for bin in "$@"; do
  name="$(basename "$bin")"
  timeout 10 "$bin" --help >"$tmp/out" 2>"$tmp/err"
  rc=$?
  [ "$rc" = 0 ] || fail "$name --help exited $rc, want 0"
  grep -q '^usage:' "$tmp/out" || fail "$name --help printed no usage"

  timeout 10 "$bin" --no-such-flag >"$tmp/out" 2>"$tmp/err"
  rc=$?
  [ "$rc" = 2 ] || fail "$name --no-such-flag exited $rc, want 2"
  grep -q -e '--no-such-flag' "$tmp/err" ||
    fail "$name did not name the unknown flag"
  [ -s "$tmp/out" ] && fail "$name wrote to stdout before refusing the flag"
done

for port in 0 abc 1700x 65536; do
  timeout 10 "$wowd" --port="$port" >/dev/null 2>&1
  rc=$?
  [ "$rc" = 2 ] || fail "wowd --port=$port exited $rc, want 2"
done
echo "port=1700x" >"$tmp/wowd.conf"
timeout 10 "$wowd" --config="$tmp/wowd.conf" >/dev/null 2>&1
rc=$?
[ "$rc" = 2 ] || fail "wowd with config line port=1700x exited $rc, want 2"

[ "$failures" = 0 ] || exit 1
echo "PASS: flag contract of $# binaries"
