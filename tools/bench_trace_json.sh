#!/usr/bin/env bash
# Back-compat wrapper: the tracing benchmark JSON is now produced by the
# generalized suite runner (tools/bench_suite.sh, suite "trace"), which
# enforces a Release build and stamps build type + git revision into the
# JSON context. This wrapper keeps the historical interface alive for
# scripts and CI jobs that call it directly.
#
# Usage: tools/bench_trace_json.sh [build-dir] [out.json]
#   build-dir defaults to build-release (configured Release if missing).
#   out.json  defaults to BENCH_trace.json in the repo root; may also be
#             set via CTFL_BENCH_TRACE_OUT.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build-release}"
OUT_JSON="${2:-${CTFL_BENCH_TRACE_OUT:-${REPO_ROOT}/BENCH_trace.json}}"

OUT_DIR="$(cd "$(dirname "${OUT_JSON}")" && pwd)"
"${REPO_ROOT}/tools/bench_suite.sh" "${BUILD_DIR}" "${OUT_DIR}" trace

# -ef: a relative out.json in the repo root (CI's smoke passes
# "BENCH_trace.json") is the suite's own file, which mv refuses to move
# onto itself.
if [[ ! "${OUT_DIR}/BENCH_trace.json" -ef "${OUT_JSON}" ]]; then
  mv "${OUT_DIR}/BENCH_trace.json" "${OUT_JSON}"
fi
echo "wrote ${OUT_JSON}"
