#!/usr/bin/env bash
# Perf trajectory runner: benches every BT_GEMM_KERNEL variant and merges the
# google-benchmark JSON into three trajectory files future PRs diff against:
#
#   BENCH_gemm.json    — GFLOP/s per kernel x shape x operand regime
#   BENCH_fig15.json   — end-to-end BERT (BM_Fig15_ByteTransformer) ms and
#                        tokens/s per kernel variant
#   BENCH_obs.json     — telemetry overhead (bench_obs): recording-primitive
#                        cost with the obs kill switch off/on, and the paired
#                        two-model Service replay (req_s_obs0 vs req_s_obs1,
#                        alternating arms); overhead_pct must stay under 2%
#                        (docs/OBSERVABILITY.md)
#
# Serving throughput and latency are measured by the end-to-end benchmark
# (bench/e2e), not here.
#
# Usage:  bench/run_perf.sh [build_dir] [out_dir]
#   build_dir  cmake build tree holding the bench binaries  (default: build)
#   out_dir    where BENCH_*.json land                      (default: repo root)
#
# Environment:
#   BT_PERF_SMOKE=1        fast CI mode: fewer shapes, a short min time, one
#                          repetition
#   BT_PERF_BASELINE=file  google-benchmark JSON of a pre-change run to embed
#                          under "baseline" in BENCH_fig15.json
#
# A full run repeats every benchmark 5 times and keeps each repetition as
# its own record ("repetition"), so the spread is in the file.
#
# Kernels that are unsupported on the host (e.g. avx2 in a portable build)
# fall back at dispatch; each record's "kernel" field is the variant that
# actually ran, so merged files never lie about what was measured.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD=${1:-build}
OUT=${2:-.}
mkdir -p "$OUT"
SMOKE=${BT_PERF_SMOKE:-0}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

for bin in bench_gemm_kernels bench_fig15_e2e_bert bench_obs; do
  if [[ ! -x "$BUILD/$bin" ]]; then
    echo "error: $bin not found under '$BUILD' (build with the" >&2
    echo "       google-benchmark package installed)" >&2
    exit 1
  fi
done

COMMON_ARGS=(--benchmark_format=json)
if [[ "$SMOKE" == "1" ]]; then
  COMMON_ARGS+=(--benchmark_min_time=0.02)
  GEMM_FILTER='/256/384/128|/512/512/512'
  FIG15_FILTER='BM_Fig15_ByteTransformer/(1/128|8/256)'
else
  COMMON_ARGS+=(--benchmark_min_time=0.1 --benchmark_repetitions=5)
  GEMM_FILTER='.'
  FIG15_FILTER='BM_Fig15_ByteTransformer'
fi

for kernel in scalar vec avx2; do
  echo "== BT_GEMM_KERNEL=$kernel bench_gemm_kernels" >&2
  BT_GEMM_KERNEL=$kernel "$BUILD/bench_gemm_kernels" "${COMMON_ARGS[@]}" \
      --benchmark_filter="$GEMM_FILTER" > "$TMP/gemm_$kernel.json"
  echo "== BT_GEMM_KERNEL=$kernel bench_fig15_e2e_bert" >&2
  BT_GEMM_KERNEL=$kernel "$BUILD/bench_fig15_e2e_bert" "${COMMON_ARGS[@]}" \
      --benchmark_filter="$FIG15_FILTER" > "$TMP/fig15_$kernel.json"
done

# Telemetry overhead: recording primitives + the service replay, obs off/on.
# BM_ServingServiceObs pins its own min time (bench_obs.cc says why).
echo "== bench_obs" >&2
"$BUILD/bench_obs" "${COMMON_ARGS[@]}" > "$TMP/obs_default.json"

python3 - "$TMP" "$OUT" "${BT_PERF_BASELINE:-}" <<'PY'
import json, sys, os

tmp, out, baseline_path = sys.argv[1], sys.argv[2], sys.argv[3]
# google-benchmark reports times in each benchmark's own Unit().
TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}

def records(path, requested):
    with open(path) as f:
        text = f.read().strip()
    if not text:  # e.g. a filter that matched nothing
        return
    doc = json.loads(text)
    ctx = doc.get("context", {})
    for b in doc.get("benchmarks", []):
        if b.get("run_type") not in (None, "iteration"):
            continue
        to_ms = TO_MS[b.get("time_unit", "ns")]
        rec = {
            "benchmark": b["run_name"],
            "kernel_requested": requested,
            # label == the kernel the dispatcher actually ran
            "kernel": b.get("label", requested),
            "real_time_ms": b["real_time"] * to_ms,
            "cpu_time_ms": b["cpu_time"] * to_ms,
        }
        if b.get("repetitions", 1) > 1:
            rec["repetition"] = b["repetition_index"]
        for key in ("gflops", "tokens_s", "alpha", "pad_waste", "obs",
                    "req_s_obs0", "req_s_obs1", "overhead_pct",
                    "p50_ms", "p99_ms"):
            if key in b:
                rec[key] = b[key]
        yield ctx, rec

def merge(stem, out_name, extra=None, kernels=("scalar", "vec", "avx2")):
    context, results = {}, []
    for kernel in kernels:
        for ctx, rec in records(os.path.join(tmp, f"{stem}_{kernel}.json"),
                                kernel):
            context = {
                "date": ctx.get("date"),
                "host_name": ctx.get("host_name"),
                "num_cpus": ctx.get("num_cpus"),
                "mhz_per_cpu": ctx.get("mhz_per_cpu"),
            }
            results.append(rec)
    doc = {"generated_by": "bench/run_perf.sh", "context": context,
           "results": results}
    if extra:
        doc.update(extra)
    with open(os.path.join(out, out_name), "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.join(out, out_name)} ({len(results)} records)")

extra = None
if baseline_path:
    with open(baseline_path) as f:
        base = json.load(f)
    extra = {"baseline": [
        {"benchmark": b["run_name"], "real_time_ms": b["real_time"],
         "cpu_time_ms": b["cpu_time"]}
        for b in base.get("benchmarks", [])
        if b.get("run_type") in (None, "iteration")
    ], "baseline_note":
        "pre-change build: scalar tile_multiply, no ISA flags, no prepacking"}

merge("gemm", "BENCH_gemm.json")
merge("fig15", "BENCH_fig15.json", extra)
# bench_obs runs once under the default dispatch ("kernel" still records
# which microkernel actually served the GEMMs).
merge("obs", "BENCH_obs.json", kernels=("default",))
PY
