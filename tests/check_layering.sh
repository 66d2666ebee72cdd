#!/usr/bin/env bash
# Layering audit (DESIGN §17): the protocol stack must be
# host-environment-agnostic.  src/p2p, src/ipop, src/vtcp and src/apps
# reach time, timers, randomness and the wire ONLY through the seam
# headers (sim/timer_service.h, sim/event_fn.h, p2p/edge.h) and plain
# value types (net/addr.h, transport/uri.h) — never through the
# simulator, the simulated WAN, or the realtime backend directly.
#
# Run from the repo root (CTest passes WORKING_DIRECTORY).  Exits 1 and
# prints every offending include when the invariant is broken.
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

layers="src/p2p src/ipop src/vtcp src/apps"
fail=0

# Hard bans: backend implementation headers.  (sim/simulator.h and
# net/network.h are the two the refactor evicted; the rest keep the
# door shut.)
banned='sim/simulator\.h|net/network\.h|net/host\.h|net/nat\.h|net/faults\.h|net/sim_edge\.h|transport/realtime\.h|transport/udp_edge\.h'
# src/apps/wowd.cpp is exempt: the daemon MAIN is a composition root —
# precisely the place that wires a concrete backend (like testbed and
# the tests are for the sim backend).  It must never be library code;
# the CMake check below pins that.
hits=$(grep -rnE "#include \"($banned)\"" $layers 2>/dev/null \
       | grep -v '^src/apps/wowd\.cpp:')
if [ -n "$hits" ]; then
  echo "layering violation: protocol layers include backend headers:" >&2
  echo "$hits" >&2
  fail=1
fi

# Whitelist check: the ONLY sim/ and net/ headers the protocol layers
# may include are the seam and value-type headers.
allowed='sim/timer_service\.h|sim/event_fn\.h|net/addr\.h'
hits=$(grep -rnE '#include "(sim|net)/' $layers 2>/dev/null \
       | grep -v '^src/apps/wowd\.cpp:' \
       | grep -vE "#include \"($allowed)\"")
if [ -n "$hits" ]; then
  echo "layering violation: non-whitelisted sim/net include:" >&2
  echo "$hits" >&2
  fail=1
fi

# wowd is the one exception: it is a MAIN, not a library — the daemon
# is precisely the place that wires a concrete backend.  Exclude it
# from the scan above by keeping it out of those directories' library
# sources; the build puts wowd.cpp in src/apps but it may only appear
# in the executable target.  Verify the library list never grows it.
if grep -qE '^\s*wowd\.cpp' src/apps/CMakeLists.txt; then
  echo "layering violation: wowd.cpp listed as a wow_apps library source" >&2
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "layering check OK: protocol layers are backend-agnostic"
fi
exit "$fail"
