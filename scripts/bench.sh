#!/usr/bin/env bash
# Runs the kernel, inference, registry and handler micro-benchmarks and
# stores the result in benchmarks/latest.txt for review / comparison
# against the committed baseline. The stored-vs-rematerialized encode
# stanza is additionally summarized (median ns/op, B/op, allocs/op and
# resident model bytes per backend) into benchmarks/BENCH_remat.json.
#
# Usage: scripts/bench.sh [extra `go test` args]
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${BENCH_COUNT:-5}"
OUT=benchmarks/latest.txt
REMAT_JSON=benchmarks/BENCH_remat.json

# hv kernels. BenchmarkNearest and BenchmarkNearestPortable each run
# /first-block (the answer in block 0, whose rows rule out every row of
# every later block through the slab's LAESA bounds: block 0 plus 128
# row tests), /later-block (the answer in the last row: nothing to
# skip, so it times the scan plus its row tests) and /one-block (five
# rows, no row test); BenchmarkNewSlab builds the 1,029-row slab.
# BenchmarkBindMajority and BenchmarkBindMajorityPortable are the stored
# spatial encode's fused kernel at the EMG shape on the host's kernel
# and on the Go loop: a same-process pair, since separate runs drift
# more than the gain they would compare.
go test -run '^$' \
  -bench 'BenchmarkXor$|BenchmarkHamming$|BenchmarkHammingPortable$|BenchmarkNearest$|BenchmarkNearestPortable$|BenchmarkNewSlab$|BenchmarkCountOnes$|BenchmarkMajority$|BenchmarkBindMajority$|BenchmarkBindMajorityPortable$|BenchmarkBundlerAdd$|BenchmarkBundlerVectorTo$' \
  -benchmem -count "$COUNT" ./internal/hv/ "$@" | tee "$OUT"
go test -run '^$' \
  -bench 'BenchmarkPredict$|BenchmarkPredictBatch$' \
  -benchmem -count "$COUNT" ./internal/hdc/ "$@" | tee -a "$OUT"
# Serving rungs. BenchmarkServingLearnWide runs /first (a publish into
# block 0, which recomputes one drift bound) and /last (into the last
# block, which recomputes the row's eight anchor distances); the learn
# rungs rebuild their model every 1,000 learns, so any -benchtime
# times the same work. BenchmarkServingPredictWide is one predict on
# hdbench's wide-am model (seed 1): medians of 10 alternating runs,
# 2-vCPU Sapphire Rapids-class VM, block-minimum bounds -> per-row
# bounds: 5.57 -> 4.11 us.
go test -run '^$' \
  -bench 'BenchmarkServingPredictUnsharded$|BenchmarkServingSearchUnsharded$|BenchmarkServingSearchNear$|BenchmarkServingPredictWide$|BenchmarkServingLearn$|BenchmarkServingLearnWide$' \
  -benchmem -count "$COUNT" ./internal/hdc/ "$@" | tee -a "$OUT"
# Registry rung: one evict -> fault-in round trip per op, clean and
# dirty, on both item-memory backends, at 5 and 1,000 learns per class
# (writes snapshots to a temp dir); then the one request per op that
# pushes the resident set over the budget while the victim is dirty,
# timed alone.
go test -run '^$' \
  -bench 'BenchmarkRegistryEvictFaultIn$|BenchmarkRegistryOverflow$' \
  -benchmem -count "$COUNT" ./internal/registry/ "$@" | tee -a "$OUT"
# tenants-durable's mix in process (eight tenants, a budget of the four
# hottest, Zipf s = 2, one learn in five), the evictor settled after
# every op: at this fixed count its faultins/kop, evictions/kop and
# snapshots/klearn are the same on any host.
go test -run '^$' \
  -bench 'BenchmarkRegistryZipfMix$' -benchtime 2000x \
  -benchmem -count "$COUNT" ./internal/registry/ "$@" | tee -a "$OUT"
# HTTP/JSON handler rung: one /predict or /learn per op through the
# handler, from the in-memory request body to the answer bytes (EMG
# geometry, five classes, no state directory, so no fsync). Each runs
# twice: /off observes nothing, /defaults observes as a flagless
# `pulphd serve` does.
go test -run '^$' \
  -bench 'BenchmarkHandlePredict$|BenchmarkHandleLearn$' \
  -benchmem -count "$COUNT" ./cmd/pulphd/ "$@" | tee -a "$OUT"

# Stored-vs-remat encode comparison: appended to latest.txt so the
# regression gate covers it, and condensed into BENCH_remat.json.
REMAT_TMP=$(mktemp)
trap 'rm -f "$REMAT_TMP"' EXIT
go test -run '^$' \
  -bench 'BenchmarkEncodeStored$|BenchmarkEncodeRemat$|BenchmarkPredictRemat$' \
  -benchmem -count "$COUNT" ./internal/hdc/ "$@" | tee -a "$OUT" | tee "$REMAT_TMP" > /dev/null

awk -v count="$COUNT" '
/^cpu:/ { machine = $0; sub(/^cpu: */, "", machine) }
/^Benchmark/ && /ns\/op/ {
  name = $1; sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
  if (!(name in seen)) { seen[name] = 1; order[++n] = name }
  for (i = 2; i < NF; i++) {
    if ($(i+1) == "ns/op")          ns[name]  = ns[name]  " " $i
    else if ($(i+1) == "B/op")      bop[name] = bop[name] " " $i
    else if ($(i+1) == "allocs/op") al[name]  = al[name]  " " $i
    else if ($(i+1) == "modelB")    mb[name]  = mb[name]  " " $i
  }
}
END {
  printf "{\n  \"machine\": \"%s\",\n  \"count\": %d,\n  \"benchmarks\": [\n", machine, count
  for (k = 1; k <= n; k++) {
    name = order[k]
    printf "    {\"name\": \"%s\", \"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s",
      name, median(ns[name]), median(bop[name]), median(al[name])
    if (name in mb) printf ", \"model_bytes\": %s", median(mb[name])
    printf "}%s\n", (k < n) ? "," : ""
  }
  print "  ]\n}"
}
function median(list,   a, len, i, j, tmp, m) {
  len = split(substr(list, 2), a, " ")
  if (len == 0) return "0"
  for (i = 2; i <= len; i++) {
    tmp = a[i] + 0
    for (j = i - 1; j >= 1 && a[j] + 0 > tmp; j--) a[j+1] = a[j]
    a[j+1] = tmp
  }
  m = (len % 2) ? a[(len+1)/2] : (a[len/2] + a[len/2+1]) / 2
  return sprintf("%.2f", m)
}' "$REMAT_TMP" > "$REMAT_JSON"

echo "wrote $OUT"
echo "wrote $REMAT_JSON"
