#!/usr/bin/env bash
# Runs the perf-trajectory benchmark suite and writes the machine-readable
# BENCH_*.json files the CI perf gate (tools/perf_gate.py) compares against
# their committed baselines:
#
#   BENCH_trace.json   BM_TracePass/blocked*          Eq. 4 tracing pass;
#                      5 repetitions, whose median the gate reads
#   BENCH_fedavg.json  BM_FedAvgRound/threads:*        one federated round
#                      + BM_GraftedStep/<tier>/96      one grafted step per
#                      SIMD tier (fed-score's 96 layer-0 nodes), one batch
#                      repeated
#                      + BM_GraftedStepFresh/<tier>/96  the same on a fresh
#                      batch each step, as training sees it; both step
#                      legs run 5 repetitions, whose median the gate reads
#   BENCH_query.json   BM_QueryRelated/* + BM_BundleLoad  bundle serving
#   BENCH_serve.json   BM_Serve/related-test/connections:N  resident query
#                      service soak (ctfl_serve + ctfl_query_client --load:
#                      requests/sec + p50/p99 latency over a live socket)
#   BENCH_stream.json  BM_StreamFold/{fold,recompute} + BM_StreamFoldEmpty
#                      O(delta) incremental score fold vs full pipeline
#                      recompute (acceptance: fold >= 10x cheaper)
#
# Guard rails:
#   * The build is forced to (and verified as) CMAKE_BUILD_TYPE=Release —
#     debug numbers must never enter a perf trajectory. The benchmark
#     binary additionally stamps "ctfl_build_type" into each JSON context
#     (from its own NDEBUG), and this script refuses to continue if that
#     says anything but "release".
#   * The repo git revision is stamped into each JSON context as
#     "ctfl_git_revision" so a trajectory point names the code it measured.
#
# Usage: tools/bench_suite.sh [build-dir] [out-dir] [suite]
#   build-dir defaults to build-release (configured Release if missing).
#   out-dir   defaults to the repo root (BENCH_*.json land next to the
#             committed baselines).
#   suite     trace|fedavg|query|serve|stream|all (default all).
# Extra benchmark flags (e.g. --benchmark_min_time=0.05s for CI smoke
# runs) can be passed via CTFL_BENCH_EXTRA_ARGS. The serve suite's load
# shape is tuned via CTFL_SERVE_BENCH_CONNECTIONS (default 8) and
# CTFL_SERVE_BENCH_REQUESTS (per connection, default 40000: at least a
# second of requests on a 4-CPU host, so that the leg is not mostly
# scheduling noise).

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build-release}"
OUT_DIR="${2:-${REPO_ROOT}}"
SUITE="${3:-all}"
EXTRA_ARGS=(${CTFL_BENCH_EXTRA_ARGS:-})

case "${SUITE}" in
  trace|fedavg|query|serve|stream|all) ;;
  *)
    echo "bench_suite: unknown suite '${SUITE}' (want trace|fedavg|query|serve|stream|all)" >&2
    exit 2
    ;;
esac

cmake -S "${REPO_ROOT}" -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=Release >/dev/null
# Belt and braces: an existing build dir configured Debug would silently
# win over the -D above in older CMake workflows; verify the cache.
CACHED_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "${BUILD_DIR}/CMakeCache.txt")"
if [[ "${CACHED_TYPE}" != "Release" ]]; then
  echo "bench_suite: ${BUILD_DIR} is configured '${CACHED_TYPE}', not Release" >&2
  echo "bench_suite: use a dedicated Release build dir (default: build-release)" >&2
  exit 2
fi
cmake --build "${BUILD_DIR}" --target micro_benchmarks -j "$(nproc)" >/dev/null

BENCH_BIN="$(find "${BUILD_DIR}" -name micro_benchmarks -type f -perm -u+x | head -n 1)"
if [[ -z "${BENCH_BIN}" ]]; then
  echo "bench_suite: micro_benchmarks binary not found under ${BUILD_DIR}" >&2
  exit 2
fi

GIT_REV="$(git -C "${REPO_ROOT}" rev-parse --short HEAD 2>/dev/null || echo unknown)"
mkdir -p "${OUT_DIR}"

# Stamps the git revision into a BENCH json and refuses debug numbers —
# both a debug CTFL build and a debug google-benchmark library (its timing
# loop overhead skews every measurement). The library check is a hard
# refusal, not a warning; CTFL_BENCH_ALLOW_DEBUG_LIB=1 overrides it on
# machines whose only libbenchmark is a debug build (numbers so produced
# are for local comparison, never for committing as baselines).
stamp_json() {
  local out_json="$1"
  python3 - "${out_json}" "${GIT_REV}" <<'PY'
import json, os, sys
path, rev = sys.argv[1], sys.argv[2]
with open(path) as f:
    data = json.load(f)
ctx = data.setdefault("context", {})
build_type = ctx.get("ctfl_build_type")
if build_type != "release":
    print(f"bench_suite: {path} measured a '{build_type}' CTFL build; "
          "perf trajectories only accept release numbers", file=sys.stderr)
    sys.exit(2)
lib_type = ctx.get("library_build_type")
if lib_type == "debug" and os.environ.get("CTFL_BENCH_ALLOW_DEBUG_LIB") != "1":
    print(f"bench_suite: {path} was produced by a debug google-benchmark "
          "library; its harness overhead poisons perf trajectories. Link a "
          "release libbenchmark, or set CTFL_BENCH_ALLOW_DEBUG_LIB=1 to "
          "accept local-only numbers.", file=sys.stderr)
    sys.exit(2)
if not data.get("benchmarks"):
    print(f"bench_suite: {path} contains no benchmarks (bad filter?)",
          file=sys.stderr)
    sys.exit(2)
ctx["ctfl_git_revision"] = rev
with open(path, "w") as f:
    json.dump(data, f, indent=2)
    f.write("\n")
PY
  echo "wrote ${out_json}"
}

# run_group NAME FILTER [benchmark flags of this group...]
run_group() {
  local name="$1" filter="$2"
  shift 2
  local out_json="${OUT_DIR}/BENCH_${name}.json"
  echo "== ${name}: ${filter}"
  "${BENCH_BIN}" \
    --benchmark_filter="${filter}" \
    --benchmark_out="${out_json}" \
    --benchmark_out_format=json \
    --benchmark_format=console \
    "$@" \
    "${EXTRA_ARGS[@]+"${EXTRA_ARGS[@]}"}"
  stamp_json "${out_json}"
}

# Resident-service soak: train a small snapshot bundle, start ctfl_serve on
# a unix socket, drive it with the concurrent client's --load mode
# (response verification on), and keep the client's BENCH json. Cleans up
# the server even when the client fails.
run_serve() {
  local out_json="${OUT_DIR}/BENCH_serve.json"
  local connections="${CTFL_SERVE_BENCH_CONNECTIONS:-8}"
  local requests="${CTFL_SERVE_BENCH_REQUESTS:-40000}"
  echo "== serve: ${connections} connections x ${requests} requests"
  cmake --build "${BUILD_DIR}" \
      --target ctfl_cli ctfl_serve_bin ctfl_query_client \
      -j "$(nproc)" >/dev/null
  local tools_dir="${BUILD_DIR}/tools"
  local work
  work="$(mktemp -d)"
  local serve_pid=""
  cleanup_serve() {
    if [[ -n "${serve_pid}" ]] && kill -0 "${serve_pid}" 2>/dev/null; then
      kill "${serve_pid}" 2>/dev/null || true
      wait "${serve_pid}" 2>/dev/null || true
    fi
    rm -rf "${work}"
  }
  trap cleanup_serve RETURN

  "${tools_dir}/ctfl" generate --dataset adult --out "${work}/train.csv" \
      --n 600 --seed 7 >/dev/null
  "${tools_dir}/ctfl" generate --dataset adult --out "${work}/test.csv" \
      --n 150 --seed 8 >/dev/null
  "${tools_dir}/ctfl" snapshot --dataset adult --train "${work}/train.csv" \
      --test "${work}/test.csv" --participants 3 --epochs 6 \
      --bundle-out "${work}/run.ctflb" >/dev/null

  "${tools_dir}/ctfl_serve" --bundle "${work}/run.ctflb" \
      --socket "${work}/serve.sock" > "${work}/serve.log" 2>&1 &
  serve_pid=$!
  for _ in $(seq 1 100); do
    grep -q "^listening on " "${work}/serve.log" 2>/dev/null && break
    if ! kill -0 "${serve_pid}" 2>/dev/null; then
      echo "bench_suite: ctfl_serve exited before listening" >&2
      cat "${work}/serve.log" >&2
      return 2
    fi
    sleep 0.1
  done

  "${tools_dir}/ctfl_query_client" --socket "${work}/serve.sock" --load \
      --connections "${connections}" --requests "${requests}" --verify \
      --json-out "${out_json}"
  "${tools_dir}/ctfl_query_client" --socket "${work}/serve.sock" \
      --op shutdown >/dev/null
  wait "${serve_pid}"
  serve_pid=""
  stamp_json "${out_json}"
}

if [[ "${SUITE}" == "trace" || "${SUITE}" == "all" ]]; then
  # One process read the dispatched blocked leg at 75.3 ms a pass and the
  # identical blocked_avx512 leg at 50.0 ms: each leg runs 5 repetitions,
  # and the checks below and tools/perf_gate.py read their medians.
  run_group trace '^BM_TracePass/' --benchmark_repetitions=5
  # Sanity-check the tracing variants + pruning counters (every leg must
  # report its counters), then the per-ISA legs: blocked_scalar must always
  # exist, and whenever the dispatched tier is a SIMD one, the default
  # blocked leg's median must beat the forced-scalar leg's by >= 2x (the
  # SIMD dispatch acceptance bar). CTFL_BENCH_SKIP_ISA_CHECK=1
  # downgrades that bar to a report for smoke runs with tiny min_time.
  python3 - "${OUT_DIR}/BENCH_trace.json" <<'PY'
import json, os, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
# Each variant's median aggregate, or its plain row in a run without
# repetitions.
rows = {}
for b in data.get("benchmarks", []):
    name = b.get("run_name", b.get("name", ""))
    if not name.startswith("BM_TracePass/"):
        continue
    if b.get("run_type") == "aggregate":
        if b.get("aggregate_name") == "median":
            rows[name.split("/")[1]] = b
    else:
        rows.setdefault(name.split("/")[1], b)
missing = {"blocked", "blocked_scalar"} - rows.keys()
if missing:
    print(f"bench_suite: missing trace variants: {sorted(missing)}",
          file=sys.stderr)
    sys.exit(2)
for variant in sorted(rows):
    b = rows[variant]
    for counter in ("tau_w_checks", "records_scanned", "blocks_pruned"):
        if counter not in b:
            print(f"bench_suite: {variant} missing counter {counter}",
                  file=sys.stderr)
            sys.exit(2)
    unit = b.get("time_unit", "ns")
    print(f"BM_TracePass/{variant}: {b['real_time']:.3f} {unit}/pass  "
          f"tau_w_checks={b['tau_w_checks']:.0f}  "
          f"records_scanned={b['records_scanned']:.0f}  "
          f"blocks_pruned={b['blocks_pruned']:.0f}")
isa = data.get("context", {}).get("ctfl_trace_isa", "scalar")
simd = rows["blocked_scalar"]["real_time"] / max(rows["blocked"]["real_time"], 1e-12)
print(f"blocked ({isa}) speedup over blocked_scalar: {simd:.2f}x")
if isa != "scalar" and simd < 2.0:
    msg = (f"bench_suite: blocked ({isa}) is only {simd:.2f}x over "
           "blocked_scalar; the SIMD dispatch acceptance bar is 2x")
    if os.environ.get("CTFL_BENCH_SKIP_ISA_CHECK") == "1":
        print(msg + " (ignored: CTFL_BENCH_SKIP_ISA_CHECK=1)")
    else:
        print(msg, file=sys.stderr)
        sys.exit(2)
PY
fi
if [[ "${SUITE}" == "fedavg" || "${SUITE}" == "all" ]]; then
  # Each leg warms up for a second before it is measured: the first
  # threaded BM_FedAvgRound leg of a fresh process sometimes ran at the
  # serial leg's speed for its whole measurement (3 of 14 fresh processes
  # on a 4-vCPU host), and no leg did once a second of rounds had run. The
  # flag, unlike a per-benchmark warm-up, keeps the leg names.
  run_group fedavg '^BM_FedAvgRound/' --benchmark_min_warmup_time=1
  # The single-thread step legs swing by up to 40% between runs of one
  # unchanged binary: each runs 5 repetitions, and tools/perf_gate.py reads
  # their median aggregate. Their rows join BENCH_fedavg.json.
  run_group fedavg_steps '^BM_GraftedStep/[a-z]|^BM_GraftedStepFresh/' \
      --benchmark_min_warmup_time=1 --benchmark_repetitions=5
  python3 - "${OUT_DIR}/BENCH_fedavg.json" "${OUT_DIR}/BENCH_fedavg_steps.json" <<'PY'
import json, os, sys
rounds_path, steps_path = sys.argv[1], sys.argv[2]
with open(rounds_path) as f:
    rounds = json.load(f)
with open(steps_path) as f:
    steps = json.load(f)
rounds["benchmarks"].extend(steps["benchmarks"])
with open(rounds_path, "w") as f:
    json.dump(rounds, f, indent=2)
    f.write("\n")
os.remove(steps_path)
PY
  echo "merged the step legs into ${OUT_DIR}/BENCH_fedavg.json"
fi
if [[ "${SUITE}" == "query" || "${SUITE}" == "all" ]]; then
  run_group query '^BM_QueryRelated/|^BM_BundleLoad'
fi
if [[ "${SUITE}" == "serve" || "${SUITE}" == "all" ]]; then
  run_serve
fi
if [[ "${SUITE}" == "stream" || "${SUITE}" == "all" ]]; then
  run_group stream '^BM_StreamFold'
  # The delta log's reason to exist: folding one round's delta must be
  # >= 10x cheaper than recomputing scores through the full one-shot
  # pipeline (the ISSUE PR10 acceptance bar). CTFL_BENCH_SKIP_STREAM_CHECK=1
  # downgrades the bar to a report for smoke runs with tiny min_time.
  python3 - "${OUT_DIR}/BENCH_stream.json" <<'PY'
import json, os, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
rows = {}
for b in data.get("benchmarks", []):
    name = b.get("name", "")
    if name.startswith("BM_StreamFold"):
        rows[name] = b
fold = rows.get("BM_StreamFold/fold/real_time")
recompute = rows.get("BM_StreamFold/recompute/real_time")
if fold is None or recompute is None:
    print(f"bench_suite: BENCH_stream.json lacks BM_StreamFold legs "
          f"(have {sorted(rows)})", file=sys.stderr)
    sys.exit(2)
for name in sorted(rows):
    b = rows[name]
    print(f"{name}: {b['real_time']:.3f} {b.get('time_unit', 'ns')}")
speedup = recompute["real_time"] / max(fold["real_time"], 1e-12)
print(f"fold speedup over full recompute: {speedup:.1f}x")
if speedup < 10.0:
    msg = (f"bench_suite: fold is only {speedup:.1f}x cheaper than full "
           "recompute; the streaming acceptance bar is 10x")
    if os.environ.get("CTFL_BENCH_SKIP_STREAM_CHECK") == "1":
        print(msg + " (ignored: CTFL_BENCH_SKIP_STREAM_CHECK=1)")
    else:
        print(msg, file=sys.stderr)
        sys.exit(2)
PY
fi

echo "bench_suite: done (${SUITE})"
