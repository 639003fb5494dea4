#!/usr/bin/env bash
# Sanitizer + lint gate. Usage: scripts/check.sh [mode]
#   asan (default)  configure/build the asan preset, run all tests under
#                   AddressSanitizer/UBSan + the bench, serving and
#                   quickstart checkpoint/resume smokes
#   tsan            same under ThreadSanitizer (includes stress_test);
#                   the crash_recovery kill matrix runs reduced
#                   (LIGHTNE_CRASH_MATRIX=reduced) — process re-exec under
#                   tsan is slow and the full matrix already ran under asan
#   crash           crash_recovery_test only, full kill matrix, under the
#                   asan build at 1 and 4 workers: kills real pipeline
#                   children at fault points and asserts resumed runs are
#                   bit-identical (DESIGN.md §12)
#   ubsan           clang build with the extended UB checks
#                   (-fsanitize=undefined,integer,bounds,float-cast-overflow)
#                   separate from the GCC asan+undefined bundle; the
#                   `integer` group stays recoverable because the hash mixers
#                   (SplitMix64, xoshiro) overflow unsigned arithmetic on
#                   purpose. Skipped with a notice when clang++ is absent.
#   lint            repo-invariant linter (tools/lint/lightne_lint.py) +
#                   its self-tests + clang-tidy over src/ tests/ bench/
#                   examples/ when clang-tidy is installed; writes the
#                   machine-readable finding report to lint_report.json
#   lines           prints the tracked code size: the lines of every file
#                   under src/ and bench/ except *.json, and the split
#                   between the two (no build)
#   native          release build for the host's widest ISA
#                   (-march=native: AVX2/AVX-512 and FMA where present) in
#                   build-native/, then the bit-identity suites (la_test,
#                   core_test, query_test, property_test and their _mt4
#                   twins): the determinism contract must not depend on the
#                   default x86-64 target's lack of FMA (DESIGN.md §8); and
#                   objdump -d of every lightne_la and lightne_core object
#                   must hold no vfmadd/vfmsub/vfnmadd/vfnmsub
set -euo pipefail

cd "$(dirname "$0")/.."

PRESET="${1:-asan}"
JOBS="$(nproc 2>/dev/null || echo 4)"

if [[ "${PRESET}" == "ubsan" ]] && ! command -v clang++ >/dev/null 2>&1; then
  echo "== ubsan preset requires clang++; not installed, skipping"
  exit 0
fi

if [[ "${PRESET}" == "lines" ]]; then
  # Files git tracks or would track (untracked but not ignored), so build
  # trees and run outputs never count.
  count_lines() {
    git ls-files -z --cached --others --exclude-standard -- "$1" \
      ':(exclude)*.json' | xargs -0 cat | wc -l
  }
  src="$(count_lines src)"
  bench="$(count_lines bench)"
  echo "src + bench: $((src + bench)) lines (src ${src}, bench ${bench};" \
    "*.json excluded)"
  exit 0
fi

if [[ "${PRESET}" == "lint" ]]; then
  echo "== lightne_lint: repo invariants over src/ tests/ bench/ examples/"
  python3 tools/lint/lightne_lint.py --report lint_report.json
  echo "== lightne_lint: rule self-tests (fixtures under tools/lint/testdata)"
  python3 -m unittest discover -s tools/lint -p "test_*.py"
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy (config: .clang-tidy)"
    cmake --preset release -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    # Headers are covered through their including TUs (HeaderFilterRegex).
    find src tests bench examples -name '*.cc' -print0 |
      xargs -0 -P "${JOBS}" -n 8 clang-tidy -p build --quiet
  else
    echo "== clang-tidy not installed; skipped (lint rules still enforced)"
  fi
  echo "lint OK"
  exit 0
fi

if [[ "${PRESET}" == "native" ]]; then
  echo "== wide-ISA bit-identity gate (-march=native) in build-native/"
  cmake -B build-native -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-march=native
  cmake --build build-native -j "${JOBS}" --target la_test core_test \
    query_test property_test
  ctest --test-dir build-native --output-on-failure \
    -R '^(la_test|core_test|query_test|property_test)(_mt4)?$'
  # The same contract in the machine code: a contraction the tests' inputs
  # happen not to expose would still show up as an FMA instruction here.
  echo "== no fused multiply-add in the lightne_la / lightne_core objects"
  command -v objdump >/dev/null || { echo "native gate needs objdump"; exit 1; }
  objects=0
  fma_objects=0
  while IFS= read -r -d '' obj; do
    objects=$((objects + 1))
    hits="$(objdump -d --no-show-raw-insn "${obj}" |
      grep -cE '\svfn?m(add|sub)' || true)"
    if [[ "${hits}" != "0" ]]; then
      echo "FMA: ${hits} instruction(s) in ${obj}"
      fma_objects=$((fma_objects + 1))
    fi
  done < <(find build-native/src/la/CMakeFiles/lightne_la.dir \
    build-native/src/core/CMakeFiles/lightne_core.dir -name '*.o' -print0)
  if [[ "${objects}" == "0" ]]; then
    echo "native gate FAILED: no lightne_la/lightne_core objects to inspect"
    exit 1
  fi
  echo "${objects} objects inspected"
  if [[ "${fma_objects}" != "0" ]]; then
    echo "native gate FAILED: ${fma_objects} object(s) hold FMA instructions"
    exit 1
  fi
  echo "native gate OK"
  exit 0
fi

if [[ "${PRESET}" == "crash" ]]; then
  echo "== crash/recovery gate: kill-at-fault-point matrix under asan"
  cmake --preset asan
  cmake --build --preset asan -j "${JOBS}" --target crash_recovery_test
  # The resume contract is "bit-identical at any worker count": run the
  # full kill matrix on the default pool and again pinned to 4 workers.
  ctest --preset asan -R 'crash_recovery_test' --output-on-failure
  echo "crash gate OK"
  exit 0
fi

cmake --preset "${PRESET}"
cmake --build --preset "${PRESET}" -j "${JOBS}"
# Under tsan, run the crash_recovery kill matrix reduced: each matrix entry
# re-executes the pipeline twice in child processes, which is expensive
# under ThreadSanitizer, and the full matrix already runs under asan.
if [[ "${PRESET}" == "tsan" ]]; then
  LIGHTNE_CRASH_MATRIX=reduced ctest --preset "${PRESET}" -j "${JOBS}"
else
  ctest --preset "${PRESET}" -j "${JOBS}"
fi

# Bench smoke: run the kernel perf baseline at reduced scale under the
# sanitizer build and validate that the JSON artifact parses with the keys
# downstream tooling relies on. This keeps bench_kernels_baseline honest
# without paying for a full-scale run in the gate.
BINDIR="build"
[[ "${PRESET}" != "release" ]] && BINDIR="build-${PRESET}"
SMOKE_JSON="$(mktemp /tmp/bench_kernels_smoke.XXXXXX.json)"
SERVE_JSON="$(mktemp /tmp/bench_serving_smoke.XXXXXX.json)"
SERVE_STORE="$(mktemp /tmp/serve_smoke.XXXXXX.est)"
trap 'rm -f "${SMOKE_JSON}" "${SERVE_JSON}" "${SERVE_STORE}"' EXIT
LIGHTNE_BENCH_SCALE=0.1 LIGHTNE_GIT_SHA="$(git rev-parse --short=12 HEAD)" \
  "./${BINDIR}/bench/bench_kernels_baseline" "${SMOKE_JSON}"
python3 - "${SMOKE_JSON}" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("schema_version", "git_sha", "simd_arm", "workers", "bench_scale",
            "results", "speedups"):
    assert key in doc, f"BENCH_kernels.json missing top-level key {key!r}"
assert doc["schema_version"] == 2
assert doc["simd_arm"] in ("generic", "avx2"), doc["simd_arm"]
assert doc["results"], "BENCH_kernels.json has no results"
for row in doc["results"]:
    for key in ("name", "kernel", "variant", "threads", "shape", "runs",
                "median_ms"):
        assert key in row, f"result row missing key {key!r}: {row}"
    assert row["median_ms"] > 0, f"non-positive median in {row['name']}"
assert "gemm_512_blocked_vs_naive_1t" in doc["speedups"]
# Orthonormalization rows at the three pipeline panel shapes, and the
# CholeskyQR2-vs-Householder ratio at rmat-small's.
names = {row["name"] for row in doc["results"]}
for shape in ("s14x138", "s16x74", "s16x42"):
    for variant in ("cholqr2_1t", "cholqr2_mt"):
        assert f"qr_{shape}_{variant}" in names, f"missing qr_{shape}_{variant}"
assert "qr_s14x138_householder_1t" in names, "missing householder QR row"
assert "qr_s14x138_cholqr2_vs_householder_1t" in doc["speedups"]
# Ledger rows of the dense-pass accelerators: the panel products through
# Gemm and GemmUpper, the Gram path of GemmTnDouble, and the fused filter.
for shape in ("s14x138", "s16x74", "s16x42"):
    for variant in ("blocked_1t", "blocked_mt", "upper_1t", "upper_mt"):
        assert f"gemm_{shape}_{variant}" in names, \
            f"missing gemm_{shape}_{variant}"
# The Gram rows: two large shapes and the rSVD's three panel shapes. The
# general A^T B path is gone, and its _blocked rows with it.
gram_tags = ("gemm_tn_32768x64", "gemm_tn_131072x128", "gemm_tn_16384x138",
             "gemm_tn_65536x74", "gemm_tn_65536x42")
for tag in gram_tags:
    for variant in ("sym_1t", "sym_mt"):
        assert f"{tag}_{variant}" in names, f"missing {tag}_{variant}"
assert not any(n.startswith("gemm_tn_") and "_blocked" in n for n in names), \
    "gemm_tn_*_blocked rows belong to the deleted general path"
# The filter at the pipeline shapes: serve-topk-like, rmat-small's and
# rmat-compressed's; and below the strip width.
prop_tags = ("propagation_s16x64", "propagation_s14x128", "propagation_s16x32",
             "propagation_s14x8")
for tag in prop_tags:
    for variant in ("1t", "mt"):
        assert f"{tag}_{variant}" in names, f"missing {tag}_{variant}"
# The rSVD tail's q x q eigensolve at the pipeline's three q.
for q in (42, 74, 138):
    assert f"eig_q{q}_1t" in names, f"missing eig_q{q}_1t"
# The two-arm kernels' rows on the dispatched arm, their _generic twins run
# under GenericSimdRegion, and each pair's speedup.
for stem in ("gemm_s14x138_upper", "gemm_s16x74_upper", "gemm_s16x42_upper",
             *(f"{tag}_sym" for tag in gram_tags),
             "spmm_s14x138_blocked", "spmm_s16x74_blocked", *prop_tags):
    for threads in ("1t", "mt"):
        for name in (f"{stem}_{threads}", f"{stem}_generic_{threads}"):
            assert name in names, f"missing {name}"
        ratio = f"{stem}_avx2_vs_generic_{threads}"
        assert ratio in doc["speedups"], f"missing speedup {ratio}"
print(f"bench smoke OK: {len(doc['results'])} results, "
      f"gemm_512 speedup {doc['speedups']['gemm_512_blocked_vs_naive_1t']}x, "
      f"qr_s14x138 cholqr2 speedup "
      f"{doc['speedups']['qr_s14x138_cholqr2_vs_householder_1t']}x")
EOF

# Sampler hot-path smoke: run the sampler perf baseline at reduced scale
# under the sanitizer build (exercising the run-merging upsert batch,
# UpsertBatch under 4-thread contention, xadd against a CAS loop, the walk
# engine's pinned tier and block decode through the dispatched varint
# decoder, the cross-variant checksum matrix, and the weighted inverse-CDF
# walk end to end) and validate the v8 JSON schema and its exact ingest
# accounting. The bench itself exits nonzero if any tier x thread-count walk
# checksum diverges; the validation below re-asserts the recorded matrix for
# good measure.
SAMPLER_JSON="$(mktemp /tmp/bench_sampler_smoke.XXXXXX.json)"
trap 'rm -f "${SMOKE_JSON}" "${SAMPLER_JSON}" "${SERVE_JSON}" "${SERVE_STORE}"' EXIT
LIGHTNE_BENCH_SCALE=0.1 LIGHTNE_GIT_SHA="$(git rev-parse --short=12 HEAD)" \
  "./${BINDIR}/bench/bench_sampler_baseline" "${SAMPLER_JSON}"
python3 - "${SAMPLER_JSON}" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("schema", "schema_version", "git_sha", "workers", "bench_scale",
            "decode", "graph", "xllc_graph", "results", "combiner",
            "contended_combiner", "walk_cache", "walk_cache_xllc",
            "walk_pairs_xllc", "checksums", "speedups"):
    assert key in doc, f"BENCH_sampler.json missing top-level key {key!r}"
assert doc["schema"] == "lightne-sampler-v8"
assert doc["schema_version"] == 8
assert doc["decode"]["backend"] in ("scalar", "ssse3", "avx2")
assert doc["results"], "BENCH_sampler.json has no results"
for row in doc["results"]:
    for key in ("name", "kind", "variant", "threads", "runs", "median_ms",
                "rate_per_sec", "unit"):
        assert key in row, f"result row missing key {key!r}: {row}"
    assert row["median_ms"] > 0, f"non-positive median in {row['name']}"
names = {row["name"] for row in doc["results"]}
for required in ("walk_compressed_naive", "walk_compressed_pinned",
                 "walk_csr_xllc", "walk_compressed_naive_xllc",
                 "walk_compressed_pinned_xllc", "walk_weighted_prefix",
                 "sampler_contended_direct_4t", "sampler_contended_batch_4t",
                 "atomic_xadd_hot_4t", "atomic_cas_hot_4t",
                 "atomic_xadd_spread_4t", "atomic_cas_spread_4t"):
    assert required in names, f"missing v7 result row {required!r}"
assert not any("coldtier" in name for name in names), \
    "v7 has no cold-tier rows"
# Exactly these keys: v7 retired the schedule-dependent flush and batch
# counters.
assert set(doc["combiner"]) == {
    "samples_accepted", "hit_rate", "combiner_hits", "direct_table_upserts",
    "combiner_table_upserts"}, f"combiner block keys: {sorted(doc['combiner'])}"
comb = doc["combiner"]
assert comb["samples_accepted"] > 0
# Exact ingest accounting: every accepted sample either starts a same-key
# run (one table upsert) or merges into one; the direct path upserts each.
assert comb["combiner_table_upserts"] + comb["combiner_hits"] == \
    comb["samples_accepted"], f"combiner accounting off: {comb}"
assert comb["direct_table_upserts"] == comb["samples_accepted"], \
    f"direct accounting off: {comb}"
for key in ("threads", "hw_cores", "ops_per_thread", "batch_size",
            "direct_median_ms", "batch_median_ms", "batch_vs_direct"):
    assert key in doc["contended_combiner"], \
        f"contended_combiner block missing {key!r}"
for cache_key in ("walk_cache", "walk_cache_xllc"):
    # Exactly these keys: v5 retired the cold-tier counter.
    assert set(doc[cache_key]) == {
        "pin_budget_bytes", "pinned_vertices", "pinned_entries",
        "pinned_bytes", "pin_hits", "decode_misses", "pin_hit_rate"}, \
        f"{cache_key} block keys: {sorted(doc[cache_key])}"
    assert doc[cache_key]["pinned_bytes"] <= doc[cache_key]["pin_budget_bytes"]
# v8 times the out-of-LLC naive and pinned walks in alternating passes; the
# xllc speedup is the median of the per-pair ratios.
pairs = doc["walk_pairs_xllc"]
assert set(pairs) == {"pairs", "ratio_median", "ratio_min", "ratio_max"}, \
    f"walk_pairs_xllc keys: {sorted(pairs)}"
assert pairs["pairs"] >= 7, pairs
assert 0 < pairs["ratio_min"] <= pairs["ratio_median"] <= pairs["ratio_max"], \
    pairs
assert doc["speedups"]["walk_pinned_vs_naive_xllc"] == pairs["ratio_median"]
# The determinism claim: every tier x thread count drew the identical walk
# stream, and the CSR walk over the same graph is the reference (compressed
# decodes every draw through Neighbor, pinned serves hubs from the pool).
assert doc["checksums"]["all_equal"] is True
entries = doc["checksums"]["entries"]
assert len(entries) == 6, f"expected 6 checksum entries, got {len(entries)}"
assert len({e["value"] for e in entries}) == 1, \
    "walk checksums differ across tiers / thread counts"
assert {e["tier"] for e in entries} == {"csr", "compressed", "pinned"}
assert {e["threads"] for e in entries} == {1, 4}
for key in ("sampler_w1_combiner_vs_direct_mt",
            "sampler_contended_batch_vs_direct",
            "xadd_vs_cas_hot_4t", "xadd_vs_cas_spread_4t",
            "walk_pinned_vs_naive_compressed", "walk_pinned_vs_naive_xllc"):
    assert key in doc["speedups"], f"speedups missing {key!r}"
assert not any("coldtier" in key for key in doc["speedups"]), \
    "v7 has no cold-tier speedups"
print(f"sampler smoke OK: {len(doc['results'])} results, "
      f"decode backend {doc['decode']['backend']}, "
      f"w1 combiner speedup "
      f"{doc['speedups']['sampler_w1_combiner_vs_direct_mt']}x, "
      f"xllc pinned walk speedup "
      f"{doc['speedups']['walk_pinned_vs_naive_xllc']}x, "
      f"checksum matrix {len(entries)} variants all equal")
EOF

# Observability smoke: run the stage-breakdown bench at reduced scale and
# validate both artifacts — the breakdown JSON (per-stage seconds, peak RSS,
# metrics snapshot) and the Chrome trace-event JSON (DESIGN.md §10).
BREAKDOWN_JSON="$(mktemp /tmp/bench_breakdown_smoke.XXXXXX.json)"
TRACE_JSON="$(mktemp /tmp/bench_trace_smoke.XXXXXX.json)"
trap 'rm -f "${SMOKE_JSON}" "${SAMPLER_JSON}" "${BREAKDOWN_JSON}" "${TRACE_JSON}" "${SERVE_JSON}" "${SERVE_STORE}"' EXIT
LIGHTNE_BENCH_SCALE=0.1 \
  "./${BINDIR}/bench/bench_time_breakdown" "${BREAKDOWN_JSON}" "${TRACE_JSON}"
python3 - "${BREAKDOWN_JSON}" "${TRACE_JSON}" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("schema", "bench_scale", "threads", "peak_rss_bytes", "runs",
            "metrics"):
    assert key in doc, f"BENCH_breakdown.json missing top-level key {key!r}"
assert doc["schema"] == "lightne-breakdown-v1"
assert doc["peak_rss_bytes"] > 0, "peak RSS must be positive"
assert doc["runs"], "BENCH_breakdown.json has no runs"
for run in doc["runs"]:
    for key in ("method", "total_seconds", "stages"):
        assert key in run, f"run missing key {key!r}: {run}"
    assert run["stages"], f"run {run['method']} has no stages"
    for stage in run["stages"]:
        for key in ("name", "seconds", "depth"):
            assert key in stage, f"stage missing key {key!r}: {stage}"
        assert stage["seconds"] >= 0
for key in ("counters", "gauges", "histograms"):
    assert key in doc["metrics"], f"metrics snapshot missing {key!r}"
assert doc["metrics"]["counters"].get("sparsifier/builds", 0) > 0
# The LightNE-Compressed run drives the walk engine: its decode counters and
# the hub cache's pinned-bytes gauge must surface in the snapshot.
walk_decodes = (doc["metrics"]["counters"].get("walk/pin_hits", 0) +
                doc["metrics"]["counters"].get("walk/decode_misses", 0))
assert walk_decodes > 0, "no walk/* decode counters in metrics snapshot"
assert doc["metrics"]["gauges"].get("walk/pinned_bytes", 0) > 0
assert any(run["method"] == "LightNE-Compressed" for run in doc["runs"])

with open(sys.argv[2]) as f:
    trace = json.load(f)
assert "traceEvents" in trace and trace["traceEvents"], "empty Chrome trace"
for ev in trace["traceEvents"]:
    for key in ("name", "ph", "ts", "dur", "pid", "tid"):
        assert key in ev, f"trace event missing key {key!r}: {ev}"
    assert ev["ph"] == "X", f"expected complete ('X') events, got {ev['ph']}"
    assert ev["ts"] >= 0 and ev["dur"] >= 0
print(f"breakdown smoke OK: {len(doc['runs'])} runs, "
      f"{len(trace['traceEvents'])} trace events, "
      f"peak rss {doc['peak_rss_bytes'] // (1 << 20)} MiB")
EOF

# Serving smoke: run the serving baseline at reduced scale under the
# sanitizer build and validate the v1 schema plus the two committed gates —
# recall@10 of int8 vs fp32 >= 0.95 and bit-identical top-k across worker
# counts. Then exercise the lightne_serve binary end to end: build an int8
# store from a synthetic embedding, answer 100 batched queries from it, and
# reject request, batch and k counts below 1 with a usage error.
LIGHTNE_BENCH_SCALE=0.1 LIGHTNE_GIT_SHA="$(git rev-parse --short=12 HEAD)" \
  "./${BINDIR}/bench/bench_serving_baseline" "${SERVE_JSON}"
python3 - "${SERVE_JSON}" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("schema", "schema_version", "git_sha", "workers", "bench_scale",
            "graph", "stores", "results", "recall", "determinism"):
    assert key in doc, f"BENCH_serving.json missing top-level key {key!r}"
assert doc["schema"] == "lightne-serving-v1"
assert doc["schema_version"] == 1
for kind in ("int8", "fp16", "fp32"):
    assert kind in doc["stores"], f"stores block missing {kind!r}"
    assert doc["stores"][kind]["bytes"] > 0
assert doc["stores"]["int8"]["ratio_vs_fp32"] > 3.0, \
    "int8 store should be ~4x smaller than fp32"
assert doc["results"], "BENCH_serving.json has no results"
for row in doc["results"]:
    for key in ("name", "kind", "request", "threads", "batch", "k",
                "requests", "qps", "p50_ms", "p99_ms"):
        assert key in row, f"result row missing key {key!r}: {row}"
    assert row["qps"] > 0, f"non-positive qps in {row['name']}"
    assert row["p50_ms"] <= row["p99_ms"] + 1e-9, f"p50 > p99 in {row['name']}"
names = {row["name"] for row in doc["results"]}
for required in ("topk_int8_b1_1t", "topk_int8_b64_mt", "topk_fp32_b64_mt",
                 "link_scores_int8_mt"):
    assert required in names, f"missing serving result row {required!r}"
assert doc["recall"]["k"] == 10
assert doc["recall"]["int8_vs_fp32"] >= 0.95, \
    f"int8 recall@10 {doc['recall']['int8_vs_fp32']} below the 0.95 gate"
assert doc["recall"]["fp16_vs_fp32"] >= 0.99
assert doc["determinism"]["bit_identical"] is True, \
    "top-k results differ between 1-worker and pool runs"
print(f"serving smoke OK: {len(doc['results'])} rows, "
      f"recall@10 int8 {doc['recall']['int8_vs_fp32']}, "
      f"int8 store {doc['stores']['int8']['ratio_vs_fp32']}x smaller")
EOF

"./${BINDIR}/examples/lightne_serve" build --store "${SERVE_STORE}" \
  --quant int8 --dim 16
"./${BINDIR}/examples/lightne_serve" query --store "${SERVE_STORE}" \
  --requests 100 --batch 8 --k 10
# Counts below 1 are usage errors (exit 2), not an empty latency vector or a
# negative value wrapped to 2^64 rows.
for bad in "--requests 0" "--batch -1" "--k 0"; do
  status=0
  "./${BINDIR}/examples/lightne_serve" query --store "${SERVE_STORE}" ${bad} \
    || status=$?
  if [[ "${status}" -ne 2 ]]; then
    echo "lightne_serve query ${bad}: expected usage exit 2, got ${status}"
    exit 1
  fi
done
echo "lightne_serve smoke OK"

# Quickstart resume smoke: a checkpointed run, a --resume run that must skip
# all three stages, then a --resume run after one payload byte of final.art
# is flipped, which must fall back to rsvd.art (two stages skipped). All
# three embeddings must be byte-identical.
CKPT_DIR="$(mktemp -d /tmp/quickstart_ckpt.XXXXXX)"
trap 'rm -f "${SMOKE_JSON}" "${SAMPLER_JSON}" "${BREAKDOWN_JSON}" "${TRACE_JSON}" "${SERVE_JSON}" "${SERVE_STORE}"; rm -rf "${CKPT_DIR}"' EXIT
quickstart_ckpt() {
  "./${BINDIR}/examples/quickstart" --dim 16 --ratio 0.1 \
    --checkpoint_dir "${CKPT_DIR}/ck" "$@"
}
expect_skipped() {
  if ! grep -qF "resumed from checkpoint: $1 stage(s) skipped" "$2"; then
    echo "quickstart --resume: expected $1 stage(s) skipped, got:"
    cat "$2"
    exit 1
  fi
}
quickstart_ckpt --out "${CKPT_DIR}/first.txt" >/dev/null
quickstart_ckpt --resume --out "${CKPT_DIR}/resumed.txt" \
  >"${CKPT_DIR}/resumed.log"
expect_skipped 3 "${CKPT_DIR}/resumed.log"
cmp "${CKPT_DIR}/first.txt" "${CKPT_DIR}/resumed.txt"
# The last bytes of final.art are the embedding frame's payload.
python3 - "${CKPT_DIR}/ck/final.art" <<'EOF'
import os, sys

with open(sys.argv[1], "r+b") as f:
    f.seek(-8, os.SEEK_END)
    byte = f.read(1)[0]
    f.seek(-8, os.SEEK_END)
    f.write(bytes([byte ^ 0xff]))
EOF
quickstart_ckpt --resume --out "${CKPT_DIR}/fallback.txt" \
  >"${CKPT_DIR}/fallback.log"
expect_skipped 2 "${CKPT_DIR}/fallback.log"
cmp "${CKPT_DIR}/first.txt" "${CKPT_DIR}/fallback.txt"
echo "quickstart resume smoke OK"
