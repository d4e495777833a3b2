#!/usr/bin/env bash
# End-to-end smokes: `bash scripts/smoke.sh <name>|all` (or `make
# <name>-smoke`). Each smoke drives the built commands the way a user
# would and passes only when every command exits 0; -verify makes a
# command replay its run fault-free in a single process and fail on any
# per-LP divergence. The race-detector suites that used to ride along
# are `make race`'s job (same tier-1 gate), which runs the packages
# wholesale. Per-smoke wall time is printed, and a total.
set -euo pipefail

GO=${GO:-go}
PORT=${PORT:-9461}
TMP=$(mktemp -d)
cleanup() {
    status=$?
    jobs -p | xargs -r kill -9 2>/dev/null || true
    rm -rf "$TMP"
    exit $status
}
trap cleanup EXIT

# One row per command: smoke name | command line, run from $TMP/bin.
#
# trace       lssim's in-process PHOLD federation on 4 pool threads,
#             observed by the kernel: the Chrome trace passes a strict
#             JSON re-parse before it hits disk, -histo prints the
#             federation snapshot, -monout writes the monitoring capture,
#             and -verify requires the observed run's per-LP counts.
# checkpoint  a PHOLD run checkpointed at a window barrier, resumed in a
#             second process and verified against the uninterrupted run.
# chaos       100 windows over real TCP with 5% of all messages dropped
#             both ways plus two scripted connection resets: the wire may
#             burn, the answer may not change.
# dist        the pipelined window engine, dense, then sparse with window
#             skipping.
# obs         a chaos-faulted 4-worker run with full telemetry: merged
#             Perfetto trace (validated before it hits disk), live JSON
#             endpoint (self-probed), cluster histograms — and not one
#             output bit changed.
# balance     both hot LPs start on worker 0 and -rebalance must migrate
#             LPs mid-run; then again with scripted resets replaying
#             migration frames.
# threads     2 workers x 4-goroutine pools, alone and with skew, live
#             rebalancing and a scripted reset stacked on top.
# crash       three OS processes, the coordinator killed -9 mid-run and
#             restarted from its journal (crash_smoke below).
# experiments E9 at quick size with -svg: the chart is drawn from the
#             table that ran, and no other experiment's chart is written
#             (experiments_smoke below).
table() {
    cat <<EOF
trace|lssim -sim phold -workers 4 -trace $TMP/trace.json -histo -monout $TMP/phold.mon -verify
checkpoint|lssim -sim phold -checkpoint $TMP/phold.ckpt
checkpoint|lssim -sim phold -resume $TMP/phold.ckpt -verify
chaos|lssim -sim distphold -horizon 100 -chaos-seed 4 -chaos-drop 0.05 -chaos-reset-at 9,23 -verify
dist|lssim -sim distphold -horizon 100 -verify
dist|lssim -sim distphold -horizon 400 -jobs 2 -delay-factor 64 -verify
obs|lssim -sim distphold -horizon 100 -workers 4 -chaos-seed 7 -chaos-drop 0.03 -chaos-reset-at 11 -trace $TMP/trace.json -metrics-addr 127.0.0.1:0 -histo -verify
balance|lssim -sim distphold -horizon 24 -skew-hot 2 -skew 4 -rebalance -rebalance-every 2 -verify
balance|lssim -sim distphold -horizon 24 -skew-hot 2 -skew 4 -rebalance -rebalance-every 2 -chaos-seed 4 -chaos-reset-at 9,23 -verify
threads|lssim -sim distphold -horizon 100 -workers 2 -threads 4 -verify
threads|lssim -sim distphold -horizon 24 -workers 2 -threads 4 -skew-hot 2 -skew 4 -rebalance -rebalance-every 2 -chaos-seed 4 -chaos-reset-at 9 -verify
crash|crash_smoke
experiments|experiments_smoke
EOF
}

# crash_smoke: the end-to-end proof that the coordinator is no longer a
# single point of failure. A distributed PHOLD run starts across three
# OS processes, the coordinator is killed with SIGKILL mid-run (no
# cleanup, exactly like a crashed host), and a fresh coordinator
# process restarts from the durable control-plane journal, re-adopts
# the parked workers, and finishes the run. -verify then replays the
# whole horizon single-process and fails on any divergence — the crash
# must not change one bit of the result.
crash_smoke() {
    # The E5 workload shape: windows cost ~10ms each, so the run lasts
    # seconds and the kill below lands mid-flight.
    local model="-lps 8 -jobs 16 -work 30000 -lookahead 1 -horizon 400"
    # Workers get a generous retry budget when the coordinator dies (8
    # attempts, then -max-park more; distsim's budget table) and keep
    # redialing until the restarted coordinator re-adopts them.
    lsnode -mode worker -addr 127.0.0.1:$PORT -own 0,1,2,3 $model -max-park 2000 &
    local w1=$!
    lsnode -mode worker -addr 127.0.0.1:$PORT -own 4,5,6,7 $model -max-park 2000 &
    local w2=$!
    local coord="-mode coordinator -addr 127.0.0.1:$PORT -workers 2 $model
        -journal $TMP/coord.journal -checkpoint $TMP/cluster.ckpt -ckpt-every 1"
    lsnode $coord &
    local c1=$!
    sleep 1.5
    kill -9 "$c1" 2>/dev/null || true
    if wait "$c1"; then
        echo "crash-smoke: run finished before the kill landed; raise -horizon" >&2
        return 1
    fi
    echo "crash-smoke: coordinator (pid $c1) killed -9 mid-run; restarting from journal"
    lsnode $coord -verify
    wait "$w1"
    wait "$w2"
}

# experiments_smoke: -svg writes one chart per sweep that ran, so
# -run E9 writes E9's and nothing else.
experiments_smoke() {
    experiments -quick -run E9 -svg "$TMP/svg"
    local got
    got=$(ls "$TMP/svg")
    if [ "$got" != e9-replication.svg ]; then
        echo "experiments-smoke: -run E9 -svg wrote [$got], want e9-replication.svg alone" >&2
        return 1
    fi
}

names=$(table | cut -d'|' -f1 | uniq)
want=${1:-}
if [ "$want" != all ] && ! grep -qx -- "$want" <<<"$names"; then
    echo "usage: smoke.sh <name>|all; names:" $names >&2
    exit 2
fi

began=$SECONDS
mkdir "$TMP/bin"
$GO build -o "$TMP/bin/" ./cmd/lssim ./cmd/lsnode ./cmd/experiments
PATH=$TMP/bin:$PATH

for name in $names; do
    [ "$want" = all ] || [ "$want" = "$name" ] || continue
    start=$SECONDS
    while IFS='|' read -r row cmd; do
        [ "$row" = "$name" ] || continue
        echo "+ $cmd"
        $cmd </dev/null
    done < <(table)
    echo "smoke $name: ok, $((SECONDS - start))s"
done
echo "smokes: ok, $((SECONDS - began))s including the build"
