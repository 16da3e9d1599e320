#!/bin/sh
# crash_smoke.sh — the durability acceptance check as a live process.
#
# Starts prmserved with a durable store directory, waits for the first
# model build to persist, SIGKILLs the daemon (optionally mid-rebuild to
# exercise the atomic write protocol), restarts it on the same store
# directory, and requires:
#
#   1. the restart recovers from the persisted snapshot (the startup log
#      says "recovered from store" — timing-proof, unlike polling health
#      before the background refresh clears the flag),
#   2. the recovered process serves a generation strictly above the one
#      the killed process served (X-Prm-Gen): generations only grow,
#      across restarts too, and
#   3. the recovered process answers /healthz and a real estimate.
#
# The run also exercises the streaming write path: rows acknowledged by
# POST /v1/ingest before the SIGKILL exist only in the write-ahead log
# (the refit threshold is set out of reach), and the restart must replay
# them — the exact row count over the ingested cell moves from 54 to 104.
#
# No manual cleanup between the kill and the restart: recovery must cope
# with whatever the SIGKILL left on disk.
set -eu

PORT="${CRASH_SMOKE_PORT:-18099}"
ADDR="127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
STORE="${WORK}/store"
PID=""

cleanup() {
    [ -n "${PID}" ] && kill -9 "${PID}" 2>/dev/null || true
    rm -rf "${WORK}"
}
trap cleanup EXIT INT TERM

say() { echo "crash-smoke: $*"; }

wait_healthz() {
    # Wait until /healthz answers 200, or fail after ~15s.
    i=0
    while [ "$i" -lt 150 ]; do
        if curl -fsS "http://${ADDR}/healthz" >"${WORK}/healthz.json" 2>/dev/null; then
            return 0
        fi
        i=$((i + 1))
        sleep 0.1
    done
    say "FAIL: ${ADDR}/healthz never came up"
    [ -f "$1" ] && { say "--- daemon log ---"; cat "$1"; }
    exit 1
}

say "building prmserved and prmshow"
go build -o "${WORK}/prmserved" ./cmd/prmserved
go build -o "${WORK}/prmshow" ./cmd/prmshow

# exact_count QUERY — the exact executor's row count for a query.
exact_count() {
    curl -fsS "http://${ADDR}/v1/estimate" \
        -d "{\"query\":\"$1\",\"exact\":true}" |
        sed -n 's/.*"count": *\([0-9][0-9]*\).*/\1/p' | head -n 1
}

CELL="FROM People p WHERE p.Education = college AND p.Income = high AND p.HomeOwner = true"

# served_gen — the generation an estimate reply carries in X-Prm-Gen.
served_gen() {
    curl -fsS -D - -o /dev/null "http://${ADDR}/v1/estimate" \
        -d '{"query":"FROM People p WHERE p.Income = high"}' |
        tr -d '\r' | sed -n 's/^[Xx]-[Pp][Rr][Mm]-[Gg][Ee][Nn]: *\([0-9][0-9]*\)$/\1/p'
}

say "first run: build fig1 and persist it to ${STORE} (ingest on, refit threshold out of reach)"
"${WORK}/prmserved" -addr "${ADDR}" -datasets fig1 -store-dir "${STORE}" \
    -ingest -refit-rows 100000 \
    >"${WORK}/run1.log" 2>&1 &
PID=$!
wait_healthz "${WORK}/run1.log"

COUNT="$(exact_count "${CELL}")"
if [ "${COUNT}" != "54" ]; then
    say "FAIL: baseline exact count for the fig1 cell = '${COUNT}', want 54"
    exit 1
fi
say "baseline exact count is 54"

# Durably ingest 50 rows into that cell. A 200 response means the batch
# is fsynced in the WAL; with the refit threshold out of reach the rows
# exist ONLY there until the restart replays them.
ROW='{"table":"People","attrs":{"Education":"college","Income":"high","HomeOwner":"true"}}'
ROWS="${ROW}"
i=1
while [ "$i" -lt 50 ]; do
    ROWS="${ROWS},${ROW}"
    i=$((i + 1))
done
ING="$(curl -fsS "http://${ADDR}/v1/ingest" -d "{\"rows\":[${ROWS}]}")"
case "${ING}" in
*'"accepted": 50'*) say "ingested 50 rows (acknowledged): ${ING}" ;;
*)
    say "FAIL: ingest returned: ${ING}"
    exit 1
    ;;
esac

# The generation the first process serves, read before the rebuild below
# can replace it: that one is on disk, whatever the kill interrupts.
GEN1="$(served_gen)"
case "${GEN1}" in
'' | *[!0-9]*)
    say "FAIL: no X-Prm-Gen on an estimate before the kill: '${GEN1}'"
    exit 1
    ;;
esac
say "first process serves generation ${GEN1}"

# Give the write protocol something to be mid-flight in: kick a rebuild
# and kill without waiting for it.
curl -fsS -X POST "http://${ADDR}/v1/models/fig1/rebuild" >/dev/null
say "SIGKILL mid-rebuild, acked rows in the WAL (pid ${PID})"
kill -9 "${PID}"
wait "${PID}" 2>/dev/null || true
PID=""

if ! ls "${STORE}"/*.snap >/dev/null 2>&1; then
    say "FAIL: no snapshot persisted before the kill"
    cat "${WORK}/run1.log"
    exit 1
fi

say "offline WAL inspection before the restart"
if ! "${WORK}/prmshow" -wal "${STORE}/wal/fig1" >"${WORK}/wal.txt" 2>&1; then
    say "FAIL: prmshow -wal failed"
    cat "${WORK}/wal.txt"
    exit 1
fi
sed 's/^/crash-smoke:   /' "${WORK}/wal.txt"

say "restart on the same store dir; no cleanup"
"${WORK}/prmserved" -addr "${ADDR}" -datasets fig1 -store-dir "${STORE}" \
    -ingest -refit-rows 100000 \
    >"${WORK}/run2.log" 2>&1 &
PID=$!
wait_healthz "${WORK}/run2.log"

if ! grep -q "recovered from store" "${WORK}/run2.log"; then
    say "FAIL: restart built from scratch instead of recovering"
    cat "${WORK}/run2.log"
    exit 1
fi
say "restart recovered from the persisted snapshot"

GEN2="$(served_gen)"
case "${GEN2}" in
'' | *[!0-9]*)
    say "FAIL: no X-Prm-Gen on an estimate after the restart: '${GEN2}'"
    exit 1
    ;;
esac
if [ "${GEN2}" -le "${GEN1}" ]; then
    say "FAIL: restart serves generation ${GEN2}, not above the killed process's ${GEN1}"
    cat "${WORK}/run2.log"
    exit 1
fi
say "generations grew across the restart: ${GEN1} -> ${GEN2}"

COUNT="$(exact_count "${CELL}")"
if [ "${COUNT}" != "104" ]; then
    say "FAIL: exact count after recovery = '${COUNT}', want 104 (54 base + 50 replayed from the WAL)"
    cat "${WORK}/run2.log"
    exit 1
fi
say "all 50 acknowledged rows survived the SIGKILL: exact count is 104"

EST="$(curl -fsS "http://${ADDR}/v1/estimate" \
    -d '{"query":"FROM People p WHERE p.Income = high"}')"
case "${EST}" in
*'"estimate"'*) say "recovered model answers estimates: ${EST}" ;;
*)
    say "FAIL: estimate on recovered model returned: ${EST}"
    exit 1
    ;;
esac

kill "${PID}" 2>/dev/null || true
wait "${PID}" 2>/dev/null || true
PID=""
say "PASS"
