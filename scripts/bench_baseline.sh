#!/usr/bin/env bash
# Regenerates the committed perf baselines (BENCH_kernels.json,
# BENCH_sampler.json, and BENCH_serving.json).
#
# Builds the release preset and runs bench_kernels_baseline,
# bench_sampler_baseline, and bench_serving_baseline three times each at
# full scale, each run in its own process. A ledger is the merge of its
# three runs: result rows are matched by name and each numeric field is the
# median of its three values, the row's timing field (median_ms, or p50_ms
# in BENCH_serving) also gets _min and _max, every other numeric value (a
# speedup, say) is the median, and strings and booleans (checksums,
# all_equal) must agree or the script fails. git_sha is HEAD, with -dirty
# appended when tracked files differ from it. Perf PRs re-run this and
# commit the results so the kernel, sampler, and serving trajectories are
# visible in version control.
# Usage: scripts/bench_baseline.sh [kernels.json] [sampler.json] [serving.json]
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="${1:-BENCH_kernels.json}"
SAMPLER_OUT="${2:-BENCH_sampler.json}"
SERVING_OUT="${3:-BENCH_serving.json}"
JOBS="$(nproc 2>/dev/null || echo 4)"
RUNS=3

cmake --preset release
cmake --build --preset release -j "${JOBS}" \
  --target bench_kernels_baseline --target bench_sampler_baseline \
  --target bench_serving_baseline

SHA="$(git rev-parse --short=12 HEAD)"
git update-index -q --refresh || true
git diff-index --quiet HEAD -- || SHA="${SHA}-dirty"

RUN_DIR="$(mktemp -d /tmp/bench_baseline.XXXXXX)"
trap 'rm -rf "${RUN_DIR}"' EXIT
for run in $(seq "${RUNS}"); do
  for bench in kernels sampler serving; do
    echo "== bench_${bench}_baseline, run ${run} of ${RUNS}"
    LIGHTNE_GIT_SHA="${SHA}" "./build/bench/bench_${bench}_baseline" \
      "${RUN_DIR}/${bench}.${run}.json"
  done
done

merge() {
  python3 - "${SHA}" "$1" "${RUN_DIR}/$2".*.json <<'PY'
import json, statistics, sys

sha, out, paths = sys.argv[1], sys.argv[2], sys.argv[3:]
docs = [json.load(open(p)) for p in paths]
TIMING = ("median_ms", "p50_ms")

def merge(values, where):
    first = values[0]
    if isinstance(first, dict):
        if any(list(v) != list(first) for v in values):
            sys.exit(f"{out}: keys of {where} differ across runs")
        return {k: merge([v[k] for v in values], f"{where}.{k}".lstrip("."))
                for k in first}
    if isinstance(first, list) and where == "results":
        runs = [{row["name"]: row for row in v} for v in values]
        rows = []
        for name in (row["name"] for row in first):
            if any(name not in run for run in runs):
                sys.exit(f"{out}: row {name} missing from a run")
            row = merge([run[name] for run in runs], f"results.{name}")
            for key in TIMING:
                if key in row:
                    row[f"{key}_min"] = min(run[name][key] for run in runs)
                    row[f"{key}_max"] = max(run[name][key] for run in runs)
            rows.append(row)
        return rows
    if isinstance(first, list):
        if any(len(v) != len(first) for v in values):
            sys.exit(f"{out}: length of {where} differs across runs")
        return [merge([v[i] for v in values], f"{where}[{i}]")
                for i in range(len(first))]
    if isinstance(first, (int, float)) and not isinstance(first, bool):
        return statistics.median(values)
    if any(v != first for v in values):
        sys.exit(f"{out}: {where} differs across runs: {values}")
    return first

doc = {}
for key, value in merge(docs, "").items():
    doc[key] = value
    if key == "git_sha":
        doc[key] = sha
        doc["runs_merged"] = len(docs)

def dump(value, indent=0, inline=False):
    # Objects one key per line; arrays one element (a result row, say) per
    # line.
    if inline or not isinstance(value, (dict, list)):
        return json.dumps(value)
    pad = "  " * (indent + 1)
    if isinstance(value, dict):
        items = [f"{pad}{json.dumps(k)}: {dump(v, indent + 1)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + "  " * indent + "}"
    items = [pad + dump(v, inline=True) for v in value]
    return "[\n" + ",\n".join(items) + "\n" + "  " * indent + "]"

with open(out, "w") as f:
    f.write(dump(doc) + "\n")
print(f"wrote {out}: median of {len(docs)} runs, git_sha {sha}")
PY
}
merge "${OUT}" kernels
merge "${SAMPLER_OUT}" sampler
merge "${SERVING_OUT}" serving
