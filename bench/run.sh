#!/usr/bin/env bash
# Build and run the benchmark harness in one command, leaving the
# machine-readable artifact BENCH_css.json at the repository root
# (schema: docs/OBSERVABILITY.md).
#
# Usage:
#   bench/run.sh          full harness (Table I on all designs, figures,
#                         ablations, micro-benchmarks)
#   bench/run.sh --fast   Table I on sb16/sb18 only, no micro-benchmarks
#                         (the JSON section always runs its three designs)
#   bench/run.sh --smoke  CI smoke test: build everything, run the CLI
#                         end-to-end on the tiny benchmark, then a
#                         bounded bench pass (sb18 at 10x, ~58k cells,
#                         full + iterative-essential engines only) that
#                         writes BENCH_css.json so CI can upload the
#                         perf trajectory per PR (tens of seconds)
#   bench/run.sh --paper  paper-scale section only: Session.run end-to-end
#                         on the ~1M-cell "-paper" profile variants,
#                         recording cells/sec, peak RSS and the
#                         essential/full edge ratio into BENCH_css.json
#                         (a few minutes; see docs/PERFORMANCE.md).
#                         Before running, the harness probes available
#                         memory (MemAvailable via Css_util.Rusage) and
#                         arms an RSS budget at current RSS + 80% of
#                         what is available: on a machine too small for
#                         the design the flow degrades (serial
#                         extraction, cheaper engine, early stop with
#                         the best checkpointed result — recorded in the
#                         JSON "degradations"/"stop_reason" fields)
#                         instead of getting OOM-killed mid-measurement;
#                         see docs/ROBUSTNESS.md
#
# All CSS_BENCH_* environment knobs documented in bench/main.ml pass
# through; CSS_BENCH_JSON overrides the artifact path and CSS_BENCH_JOBS
# sets the worker-domain count for the parallel-extraction speedup
# measurement (default: the runtime's recommended domain count).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--smoke" ]; then
  dune build
  dune exec bin/css_opt_cli.exe -- --benchmark tiny --rounds 1 --quiet
  # parallel extraction must be bit-identical to sequential: same design,
  # --jobs 1 vs --jobs 2, byte-compare the saved optimized netlists
  out1="$(mktemp)" out2="$(mktemp)" tmp=""
  trap 'rm -f "$tmp" "$out1" "$out2"' EXIT
  dune exec bin/css_opt_cli.exe -- --benchmark tiny --rounds 1 --quiet --jobs 1 -o "$out1"
  dune exec bin/css_opt_cli.exe -- --benchmark tiny --rounds 1 --quiet --jobs 2 -o "$out2"
  if ! cmp -s "$out1" "$out2"; then
    echo "smoke: --jobs 2 result differs from --jobs 1 (parallel extraction is not deterministic)" >&2
    exit 1
  fi
  # a malformed design must fail with the input-error exit code (2) and
  # a one-line diagnostic, never a backtrace
  tmp="$(mktemp)"
  printf 'design broken period abc\n' > "$tmp"
  set +e
  dune exec bin/css_opt_cli.exe -- --input "$tmp" 2> /dev/null
  rc=$?
  set -e
  if [ "$rc" -ne 2 ]; then
    echo "smoke: expected exit 2 on malformed input, got $rc" >&2
    exit 1
  fi
  # streaming tracer end-to-end: a traced run must produce a Chrome
  # trace_event JSON (css_trace.json — CI uploads it as the Perfetto
  # artifact) and clean up its spill file
  dune exec bin/css_opt_cli.exe -- --benchmark tiny --rounds 1 --quiet --jobs 2 \
    --trace-out "$PWD/css_trace.json"
  if [ ! -s "$PWD/css_trace.json" ]; then
    echo "smoke: --trace-out produced no trace" >&2
    exit 1
  fi
  if [ -e "$PWD/css_trace.json.spill" ]; then
    echo "smoke: tracer spill file left behind after successful export" >&2
    exit 1
  fi
  # bounded bench pass at the largest profile CI can afford: sb18 at
  # 10x (~58k cells), skipping the slow IC-CSS over-extraction engine.
  # Leaves BENCH_css.json (with cells_per_sec / peak_rss_bytes /
  # histograms fields) for CI to upload as the per-PR perf artifact and
  # to diff against bench/baseline_smoke.json with css_stats --gate.
  CSS_BENCH_JSON_ONLY=1 CSS_BENCH_SCALE=10 CSS_BENCH_DESIGNS=sb18 \
    CSS_BENCH_ENGINES=full,iterative-essential \
    CSS_BENCH_JSON="${CSS_BENCH_JSON:-$PWD/BENCH_css.json}" \
    dune exec bench/main.exe
  echo "smoke: ok"
  exit 0
fi

if [ "${1:-}" = "--paper" ]; then
  export CSS_BENCH_PAPER_ONLY=1
fi
if [ "${1:-}" = "--fast" ]; then
  export CSS_BENCH_FAST=1
  export CSS_BENCH_SKIP_BECHAMEL=1
fi
export CSS_BENCH_JSON="${CSS_BENCH_JSON:-$PWD/BENCH_css.json}"

dune build bench/main.exe
dune exec bench/main.exe
echo "artifact: $CSS_BENCH_JSON"
