#!/usr/bin/env bash
# Run `repro sweep --listen 127.0.0.1:PORT` with two dial-in workers
# that share the cache directory .cache_shared; fail unless the sweep
# and both workers exit 0.  Run from the repository root:
#
#   REPRO_RECORDS=200 .github/scripts/dial-in-sweep.sh PORT [sweep options...]
#
# A worker whose first dial comes after the sweep has closed its
# listener exits 1 (coordinator_unreachable), and a short sweep can end
# before a slow worker has started.  So the sweep is stopped (SIGSTOP)
# as soon as its listener is up and continued only once both workers'
# connections are established in its backlog: the kernel completes a
# dial to a listening socket whether or not the process is running.  A
# worker that has connected once exits 0 when the listener closes.
set -euo pipefail
port=$1
shift
export PYTHONPATH=src

python -m repro sweep --listen "127.0.0.1:$port" "$@" &
sweep=$!
workers=()
# On a failure, leave no process behind (a stopped sweep included).
trap '{ set +e; kill -CONT "$sweep"; kill "${workers[@]}" "$sweep"; } 2> /dev/null' EXIT

until [ "$(ss -Htln "( sport = :$port )" | wc -l)" -ge 1 ]; do
  kill -0 "$sweep"  # fails the script if the sweep died first
  sleep 0.05
done
kill -STOP "$sweep"
for i in 1 2; do
  python -m repro worker --connect "127.0.0.1:$port" \
    --cache-dir .cache_shared >> "worker$i.log" 2>&1 &
  workers+=("$!")
done
until [ "$(ss -Htn state established "( sport = :$port )" | wc -l)" -ge 2 ]; do
  for pid in "${workers[@]}"; do
    kill -0 "$pid"  # fails the script if a worker died before dialing
  done
  sleep 0.05
done
kill -CONT "$sweep"

wait "$sweep" || { status=$?; echo "sweep exited $status" >&2; exit 1; }
for i in 1 2; do
  wait "${workers[$((i - 1))]}" ||
    { status=$?; echo "worker $i exited $status (see worker$i.log)" >&2; exit 1; }
done
echo "sweep and both workers exited 0"
