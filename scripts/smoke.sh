#!/bin/sh
# Smoke-test the HTTP DSE service end to end: build, boot `coldtall serve`
# with a persistent store, answer a characterization (cold, then from the
# response cache), run an async job through the CLI client and byte-diff
# its artifact against the synchronous endpoint, scrape /metrics, and
# assert a clean SIGTERM drain (exit 0).
set -eu

BIN="${TMPDIR:-/tmp}/coldtall-smoke"
ADDR="${COLDTALL_SMOKE_ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"

go build -o "$BIN" ./cmd/coldtall

"$BIN" serve -addr "$ADDR" -store-dir "$WORK/store" &
PID=$!
trap 'kill -9 "$PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

# Wait for the listener (the binary binds before serving, so this is quick).
i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "smoke FAIL: /healthz never came up on $ADDR" >&2
    exit 1
  fi
  sleep 0.2
done

curl -fsS "$BASE/healthz" | grep -q ok

# Cold characterization, then the identical request must be a cache hit.
curl -fsS -X POST -d '{"cell":"SRAM"}' "$BASE/v1/characterize" | grep -q read_latency_s
curl -fsS -D - -o /dev/null -X POST -d '{"cell":"SRAM"}' "$BASE/v1/characterize" |
  grep -qi '^x-cache: hit'

# The table endpoint agrees with the CLI export format.
curl -fsS "$BASE/v1/tables/1?format=csv" | head -1 | grep -q parameter

# Async job flow: submit the Table I artifact through the CLI client,
# poll it to completion, and require the payload to be byte-identical to
# the synchronous endpoint's CSV.
"$BIN" jobs -server "$BASE" submit table1 > "$WORK/submit.txt"
JOB_ID="$(awk '{print $1; exit}' "$WORK/submit.txt")"
case "$JOB_ID" in
  j*) ;;
  *) echo "smoke FAIL: jobs submit printed no job ID: $(cat "$WORK/submit.txt")" >&2; exit 1 ;;
esac
"$BIN" jobs -server "$BASE" -poll 100ms wait "$JOB_ID" > "$WORK/job.csv"
curl -fsS "$BASE/v1/artifacts/table1?format=csv" > "$WORK/sync.csv"
cmp "$WORK/job.csv" "$WORK/sync.csv" || {
  echo "smoke FAIL: async artifact diverged from the synchronous endpoint" >&2
  exit 1
}
"$BIN" jobs -server "$BASE" list | grep -q "$JOB_ID"

# Metrics expose the latency histogram, the cache counters and the
# persistence/job series the store wiring adds.
METRICS="$(curl -fsS "$BASE/metrics")"
for series in coldtall_request_seconds_count coldtall_cache_hits_total coldtall_http_inflight \
  coldtall_jobs_running coldtall_store_entries coldtall_cache_evictions_total; do
  echo "$METRICS" | grep -q "$series" || {
    echo "smoke FAIL: /metrics missing $series" >&2
    exit 1
  }
done

# SIGTERM must drain and exit 0.
kill -TERM "$PID"
wait "$PID"
trap - EXIT
rm -rf "$WORK"
echo "smoke OK: served, cached, ran a job, scraped, drained cleanly"
