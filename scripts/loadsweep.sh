#!/usr/bin/env bash
# Serving capacity sweep: boot `pulphd serve -demo=false` for each
# item-memory backend, train it over /learn from the EMG campaign's
# training split, then drive an hdload sweep and merge every backend's
# phases into one machine-readable report (benchmarks/BENCH_serving.json
# by default). Run from the repository root.
#
# Environment knobs (all optional):
#   SWEEP_ADDR            serve listen address        (localhost:8124)
#   SWEEP_OUT             JSON report path            (benchmarks/BENCH_serving.json)
#   SWEEP_BACKENDS        backends to measure         (stored remat)
#   SWEEP_RATES           open-loop rates per second  (100,200,400,800)
#   SWEEP_CONCURRENCIES   closed-loop worker counts   (empty: open loop; setting
#                         this switches the sweep to closed loop)
#   SWEEP_DURATION        measured interval per phase (5s)
#   SWEEP_WARMUP          unrecorded warmup per phase (1s)
#   SWEEP_LEARN_FRAC      /learn fraction of traffic  (0.02)
#   SWEEP_SLO             hdload -slo expression      (empty: no gate)
#   SWEEP_SERVE_FLAGS     extra `pulphd serve` flags  (empty)
#   SWEEP_MODEL           registry model name to sweep via the
#                         /models/{name}/... routes   (empty: legacy routes)
#
# The CI capacity-smoke lane reuses this script with a short closed-loop
# configuration; the committed BENCH_serving.json comes from the default
# open-loop sweep run on a quiet machine.
set -euo pipefail

ADDR="${SWEEP_ADDR:-localhost:8124}"
BASE="http://$ADDR"
OUT="${SWEEP_OUT:-benchmarks/BENCH_serving.json}"
BACKENDS="${SWEEP_BACKENDS:-stored remat}"
RATES="${SWEEP_RATES:-100,200,400,800}"
CONCURRENCIES="${SWEEP_CONCURRENCIES:-}"
DURATION="${SWEEP_DURATION:-5s}"
WARMUP="${SWEEP_WARMUP:-1s}"
LEARN_FRAC="${SWEEP_LEARN_FRAC:-0.02}"
SLO="${SWEEP_SLO:-}"
SERVE_FLAGS="${SWEEP_SERVE_FLAGS:-}"
MODEL="${SWEEP_MODEL:-}"

TMP="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

if (exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}") 2>/dev/null; then
  exec 3>&- 3<&- || true
  echo "loadsweep: $ADDR is already in use — stop the listener or rerun with SWEEP_ADDR=host:port" >&2
  exit 1
fi

echo "loadsweep: building pulphd"
go build -o "$TMP/pulphd" ./cmd/pulphd

fail() {
  echo "loadsweep: $*" >&2
  [ -f "$TMP/serve.log" ] && { echo "--- server log ---" >&2; cat "$TMP/serve.log" >&2; }
  exit 1
}

rc=0
for backend in $BACKENDS; do
  echo "loadsweep: === backend $backend ==="
  # shellcheck disable=SC2086  # SERVE_FLAGS is intentionally word-split
  "$TMP/pulphd" serve -metrics-addr "$ADDR" -demo=false -im-backend "$backend" \
    $SERVE_FLAGS >"$TMP/serve.log" 2>&1 &
  SERVE_PID=$!

  for i in $(seq 1 50); do
    if curl -sf --max-time 5 "$BASE/healthz" >/dev/null 2>&1; then
      break
    fi
    kill -0 "$SERVE_PID" 2>/dev/null || fail "serve ($backend) died during startup"
    [ "$i" = 50 ] && fail "serve ($backend) /healthz never came up"
    sleep 0.2
  done

  # Legacy-route regression gate: whatever model the sweep targets, the
  # single-model routes must still exist and answer semantically (409
  # on an empty model is fine; 404/405 means the mux lost them).
  code=$(curl -s -o /dev/null -w '%{http_code}' --max-time 5 -X POST \
    -d '{"window":[[1,2,3,4]]}' "$BASE/predict")
  case "$code" in
    404|405|000) fail "legacy /predict returned $code — route regressed" ;;
  esac

  # Named-route probe: create a throwaway registry model, teach it one
  # window through /models/{name}/learn, classify through
  # /models/{name}/predict, delete it. Fails fast when the multi-tenant
  # surface breaks, independent of which routes the sweep below uses.
  curl -sf --max-time 5 -X POST -d '{"name":"sweepprobe"}' "$BASE/models" >/dev/null \
    || fail "POST /models could not create the probe model"
  curl -sf --max-time 5 -X POST -d '{"label":"rest","window":[[1,2,3,4]]}' \
    "$BASE/models/sweepprobe/learn" >/dev/null || fail "named /learn route failed"
  curl -sf --max-time 5 -X POST -d '{"window":[[1,2,3,4]]}' \
    "$BASE/models/sweepprobe/predict" | grep -q '"model":"sweepprobe"' \
    || fail "named /predict route failed or answered for the wrong model"
  curl -sf --max-time 5 -X DELETE "$BASE/models/sweepprobe" >/dev/null \
    || fail "DELETE /models/{name} failed"

  # Mode flags: closed loop when SWEEP_CONCURRENCIES is set, open loop
  # otherwise. -seed-model -1 trains the empty server on the whole
  # training split so every class the predict traffic asks about exists.
  mode_flags=(-rates "$RATES")
  [ -n "$CONCURRENCIES" ] && mode_flags=(-concurrencies "$CONCURRENCIES")
  slo_flags=()
  [ -n "$SLO" ] && slo_flags=(-slo "$SLO")
  model_flags=()
  if [ -n "$MODEL" ]; then
    curl -sf --max-time 5 -X POST -d "{\"name\":\"$MODEL\"}" "$BASE/models" >/dev/null \
      || fail "POST /models could not create sweep model $MODEL"
    model_flags=(-model "$MODEL")
  fi

  backend_rc=0
  "$TMP/pulphd" hdload -target "$BASE" "${mode_flags[@]}" "${model_flags[@]}" \
    -duration "$DURATION" -warmup "$WARMUP" -learn-frac "$LEARN_FRAC" \
    -seed-model -1 -label "$backend" -out "$OUT" "${slo_flags[@]}" || backend_rc=$?
  kill -0 "$SERVE_PID" 2>/dev/null || fail "serve ($backend) died during the sweep"
  if [ "$backend_rc" -ne 0 ]; then
    echo "loadsweep: backend $backend failed the sweep (exit $backend_rc)" >&2
    rc=1
  fi

  kill -TERM "$SERVE_PID"
  status=0
  wait "$SERVE_PID" || status=$?
  SERVE_PID=""
  [ "$status" = 0 ] || fail "serve ($backend) exited $status on SIGTERM, want 0"
done

[ "$rc" = 0 ] && echo "loadsweep: report merged into $OUT"
exit "$rc"
