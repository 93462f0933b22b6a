#!/bin/sh
# Multi-node chaos soak for `qbss route`: three `qbss serve` backends
# behind the router take ~8 s of paced, Zipf-skewed load while one backend
# is SIGKILLed 3 s in and restarted 2 s later.
#
#   sh tools/route_chaos_soak.sh QBSS LOADGEN OUTDIR OBS
#
# QBSS and LOADGEN are the `qbss` and `qbss-loadgen` binaries; OUTDIR
# receives every manifest, log and report (created if missing); OBS is 1
# when the binaries were built with QBSS_OBS=ON and 0 otherwise.
#
# Gates, all checked after every process has been stopped:
#   - the retrying clients complete every request with zero shed
#     responses, zero byte-identity violations and zero invalid schedules
#     (loadgen --validate --expect-no-shed --expect-cache-hits exits 0);
#   - after the load, `qbss scrape --backends` lists all 3 backends;
#   - the router and all three backends exit 0;
#   - the router's manifest passes `qbss obs-diff` against itself;
#   - OBS=1 only: the router's debug log records the breaker opening
#     (route.backend_down), traffic failing over (route.failover) and the
#     breaker closing again (route.backend_up), and the flight recording
#     renders through `qbss logs --postmortem`.
set -u

if [ $# -ne 4 ]; then
  echo "usage: $0 QBSS LOADGEN OUTDIR OBS" >&2
  exit 2
fi
qbss=$1
loadgen=$2
out=$3
obs=$4
# The script works inside OUTDIR, so relative binary paths are resolved
# against the caller's directory first.
case $qbss in /*) ;; *) qbss=$PWD/$qbss ;; esac
case $loadgen in /*) ;; *) loadgen=$PWD/$loadgen ;; esac

mkdir -p "$out" || exit 2
cd "$out" || exit 2
base=/tmp/qbss-route-soak-$$
rm -f "$base-b1.sock" "$base-b2.sock" "$base-b3.sock" "$base-r.sock"
rm -f route_soak_log.ndjson route_soak_flight.ndjson

"$qbss" serve --socket "$base-b1.sock" --workers 2 \
  --manifest route_soak_b1.json & b1=$!
"$qbss" serve --socket "$base-b2.sock" --workers 2 \
  --manifest route_soak_b2.json & b2=$!
"$qbss" serve --socket "$base-b3.sock" --workers 2 \
  --manifest route_soak_b3.json & b3=$!
printf 'b1 unix:%s\nb2 unix:%s\nb3 unix:%s\n' \
  "$base-b1.sock" "$base-b2.sock" "$base-b3.sock" > route_soak.topo

obs_flags=""
if [ "$obs" = 1 ]; then
  obs_flags="--flight route_soak_flight.ndjson --log route_soak_log.ndjson \
    --log-level debug"
fi
# $obs_flags is split on purpose: it holds several flags or none.
"$qbss" route --topology route_soak.topo \
  --socket "$base-r.sock" --health-interval-ms 100 \
  --breaker-failures 2 --breaker-open-ms 300 \
  --backend-retries 1 --backend-timeout-ms 2000 \
  $obs_flags --manifest route_soak.json & rpid=$!

"$loadgen" --targets "unix:$base-r.sock" \
  --connections 4 --qps 150 --duration 8 --seeds 6 --zipf 1.0 \
  --timeout-ms 5000 --retries 8 \
  --validate --expect-no-shed --expect-cache-hits & lpid=$!
sleep 3
kill -9 "$b2"
wait "$b2"
sleep 2
"$qbss" serve --socket "$base-b2.sock" --workers 2 \
  --manifest route_soak_b2r.json & b2=$!
wait "$lpid"
lst=$?

"$qbss" scrape --quiet --socket "$base-r.sock" --backends \
  > route_soak_backends.txt
cst=$?
cat route_soak_backends.txt

"$loadgen" --targets "unix:$base-r.sock" \
  --requests 0 --connections 1 --quiet --shutdown
wait "$rpid"
rst=$?
"$loadgen" \
  --targets "unix:$base-b1.sock,unix:$base-b2.sock,unix:$base-b3.sock" \
  --requests 0 --connections 1 --quiet --shutdown
wait "$b1"
s1=$?
wait "$b2"
s2=$?
wait "$b3"
s3=$?

status=0
fail() {
  echo "route_chaos_soak: $*" >&2
  status=1
}
[ "$lst" -eq 0 ] || fail "loadgen exited $lst"
[ "$cst" -eq 0 ] || fail "scrape --backends exited $cst"
[ "$(wc -l < route_soak_backends.txt)" -eq 3 ] ||
  fail "scrape --backends did not list 3 backends"
[ "$rst" -eq 0 ] || fail "router exited $rst"
[ "$s1" -eq 0 ] || fail "backend b1 exited $s1"
[ "$s2" -eq 0 ] || fail "restarted backend b2 exited $s2"
[ "$s3" -eq 0 ] || fail "backend b3 exited $s3"
"$qbss" obs-diff route_soak.json route_soak.json ||
  fail "router manifest self-diff failed"
if [ "$obs" = 1 ]; then
  grep -q '"event":"route.backend_down"' route_soak_log.ndjson ||
    fail "no route.backend_down event in the router log"
  grep -q '"event":"route.failover"' route_soak_log.ndjson ||
    fail "no route.failover event in the router log"
  grep -q '"event":"route.backend_up"' route_soak_log.ndjson ||
    fail "no route.backend_up event in the router log"
  if "$qbss" logs --postmortem route_soak_flight.ndjson \
      > route_soak_postmortem.txt; then
    cat route_soak_postmortem.txt
  else
    fail "the flight recording does not render"
  fi
fi
exit "$status"
