#!/usr/bin/env bash
# Single entry point for local and CI verification:
#   configure, build, run the full ctest suite, then one smoke bench.
#
#   $ tools/check.sh [build-dir]        # full build + test + smokes
#   $ tools/check.sh lint [build-dir]   # pre-PR static pass only:
#                                       #   rdcn_lint (+ self-tests),
#                                       #   clang-format / clang-tidy over
#                                       #   changed files when installed
#
# RDCN_WERROR=ON in the environment turns warnings into errors (CI does).
# Exit code is nonzero if any stage fails.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"

configure() {
  cmake -B "$1" -S "$repo" -DRDCN_WERROR="${RDCN_WERROR:-OFF}" "${@:2}"
}

if [ "${1:-}" = "lint" ]; then
  build="${2:-$repo/build}"
  echo "== lint: rdcn_lint =="
  configure "$build" >/dev/null
  cmake --build "$build" -j"$(nproc)" --target rdcn_lint test_lint
  ctest --test-dir "$build" --output-on-failure -R test_lint
  "$build/rdcn_lint" --root "$repo"
  # clang tools are optional locally (the CI lint job always has them);
  # when present they run over the files this branch touches.
  changed="$(git -C "$repo" diff --name-only --diff-filter=d origin/main...HEAD \
               2>/dev/null | grep -E '\.(cpp|hpp)$' | grep -v '^tests/lint_fixtures/' \
               || true)"
  if command -v clang-format >/dev/null && [ -n "$changed" ]; then
    echo "== lint: clang-format (changed files) =="
    (cd "$repo" && echo "$changed" | xargs clang-format --dry-run -Werror)
  else
    echo "== lint: clang-format skipped (not installed or no changed files) =="
  fi
  if command -v clang-tidy >/dev/null && [ -n "$changed" ]; then
    echo "== lint: clang-tidy (changed sources) =="
    configure "$build" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    sources="$(echo "$changed" | grep -E '^(src|tools|bench)/.*\.cpp$' || true)"
    if [ -n "$sources" ]; then
      (cd "$repo" && echo "$sources" | xargs clang-tidy -p "$build" --quiet)
    fi
  else
    echo "== lint: clang-tidy skipped (not installed or no changed files) =="
  fi
  echo "check.sh: lint passed"
  exit 0
fi

build="${1:-$repo/build}"

echo "== configure =="
configure "$build"

echo "== build =="
cmake --build "$build" -j"$(nproc)"

echo "== test =="
ctest --test-dir "$build" --output-on-failure -j"$(nproc)"

echo "== lint =="
# Project-specific invariants (hot-alloc, json-concat, probe-registry,
# include-hygiene); test_lint already validated the tool against its
# fixtures as part of the suite above.
"$build/rdcn_lint" --root "$repo"

echo "== smoke bench =="
# bench_scalability runs the whole stack: engine, LP, brute force, dual witness.
"$build/bench/bench_scalability" >/dev/null
# bench_suite drives its embedded zoo spec through the suite runner; it must
# run and print its cost rows.
"$build/bench/bench_suite" > "$build/suite_rows.txt"
grep -q '"total_cost"' "$build/suite_rows.txt"
# bench_hotpath's own correctness checks: exit 3 when a repetition's
# schedule differs from the first one's (determinism) or a probe-on drain
# differs from the probe-off one. Its speed is gated in CI against the base
# commit on the same host (tools/ab_bench.py), not here.
"$build/bench/bench_hotpath" --quick --phases --json >/dev/null

echo "== smoke fuzz =="
# Fixed-seed differential sweep; the random spec grids draw the whole
# topology zoo (two-tier, crossbar, oversubscribed, expander, rotor), so
# every wiring family passes through the checker on every run.
"$build/rdcn_fuzz" --seeds 15 --base 1 >/dev/null
# Staged stream specs (failure injection / mid-run rewiring): seed 17
# historically caught a telemetry served-count bug at stage boundaries.
"$build/rdcn_fuzz" --seeds 10 --base 12 --mode stream >/dev/null
# Transient-failure classification: an injected infrastructure hiccup is
# retried once (same seed) and the sweep still comes out clean.
"$build/rdcn_fuzz" --seeds 2 --base 1 --mode batch --inject-transient 1 >/dev/null

echo "== smoke cli =="
# README's documented commands (Quick start, Streaming, then Dynamic
# scenarios), word for word except that build/ is "$build/", /tmp/ is
# "$build/" and stages.json is "$build/stages.json". Each runs under a
# 10 s budget; on a RelWithDebInfo build every one finishes in under 0.1 s,
# so a miss means a hang or a large slowdown, not noise.
readme() { (cd "$repo" && timeout 10 "$build/rdcn_cli" "$@" > "$build/readme.out"); }
readme gen "$build/pod.inst" --racks 8 --packets 200 --seed 1
readme run "$build/pod.inst" --policy alg
readme policies
readme certify "$build/pod.inst"
readme suite examples/suites/paper_baseline.json
readme stream --policy alg --skew uniform --rho 0.5 --packets 100000
readme stream --policy fifo --rho 0.9 --source onoff
readme record "$build/trace.inst" --rho 0.8 --packets 5000
readme stream --trace "$build/trace.inst"
# The failure-injection example with README's stages.json, audited: kill
# a rack and two edges under requeue, then restore them; the per-stage
# summary rows must appear.
cat > "$build/stages.json" <<'EOF'
[
  {"duration": 60},
  {"duration": 60, "kill_racks": [0], "kill_edges": [1, 2],
   "dead": "requeue", "rho": 0.4},
  {"duration": 0, "restore_racks": [0], "restore_edges": [1, 2]}
]
EOF
readme stream --rho 0.6 --skew uniform --warmup 1000 --packets 20000 \
    --stages "$build/stages.json" --audit
grep -q "stage 2" "$build/readme.out"
# Profile subcommand: per-phase table plus a Chrome trace; the command
# itself strict-parses the written trace (nonzero exit on invalid JSON).
"$build/rdcn_cli" profile --racks 16 --packets 500 \
    --out "$build/profile_trace.json" >/dev/null
test -s "$build/profile_trace.json"

echo "== smoke suites =="
"$build/rdcn_cli" suite "$repo/examples/suites/skew_sweep.json" --list >/dev/null
"$build/rdcn_cli" suite "$repo/examples/suites/failure_sweep.json" >/dev/null
if "$build/rdcn_cli" suite "$repo/tests/suites/unknown_key.json" >/dev/null 2>&1; then
  echo "check.sh: bad suite file was not rejected" >&2
  exit 1
fi

echo "== smoke fault tolerance & resume =="
# A small two-workload suite; the fault hook targets the zipf cells.
cat > "$build/resume_smoke.json" <<'EOF'
{
  "suite": "resume-smoke",
  "mode": "batch",
  "seeds": {"base": 1, "repetitions": 2},
  "policies": ["alg", "fifo"],
  "topologies": [
    {"name": "pod", "kind": "two_tier", "racks": 6, "lasers": 2,
     "photodetectors": 2, "density": 0.6, "max_edge_delay": 2}
  ],
  "workloads": [
    {"name": "uniform", "packets": 80, "rate": 4.0, "skew": "uniform"},
    {"name": "zipf", "packets": 80, "rate": 4.0, "skew": "zipf",
     "zipf_exponent": 1.2}
  ]
}
EOF
# Reference: the uninterrupted run every fault-tolerant variant must match.
# wall_ms is a wall-clock measurement -- the one field two runs of the
# same cell never agree on -- so cross-run comparisons strip it; every
# actual metric must then be byte-identical.
strip_wall() { sed -E 's/"wall_ms":[0-9.eE+-]+,?//g' "$1"; }
"$build/rdcn_cli" suite "$build/resume_smoke.json" --threads 1 \
    > "$build/resume_ref.out" 2>/dev/null
# Kill-and-resume: the injected crash SIGKILLs the process at the first
# zipf cell (cells run in order under --threads 1, so the uniform cells
# are already journaled); the resume must produce bit-identical output.
rm -f "$build/resume_smoke.journal"
kill_status=0
RDCN_SUITE_FAULT="crash@zipf" "$build/rdcn_cli" suite "$build/resume_smoke.json" \
    --threads 1 --journal "$build/resume_smoke.journal" \
    >/dev/null 2>&1 || kill_status=$?
if [ "$kill_status" -ne 137 ]; then
  echo "check.sh: crash injection did not SIGKILL the suite (exit $kill_status)" >&2
  exit 1
fi
grep -q '"rdcn_suite_journal":1' "$build/resume_smoke.journal"
"$build/rdcn_cli" suite --resume "$build/resume_smoke.journal" \
    > "$build/resume_merged.out" 2>/dev/null
cmp <(strip_wall "$build/resume_ref.out") <(strip_wall "$build/resume_merged.out")
# Isolate: the failing zipf cells become structured error rows; the
# healthy uniform rows stay bit-identical to the reference.
RDCN_SUITE_FAULT="throw@zipf" "$build/rdcn_cli" suite "$build/resume_smoke.json" \
    --threads 1 --isolate > "$build/resume_isolate.out" 2>/dev/null
test "$(grep -c '"status":"failed"' "$build/resume_isolate.out")" -eq 2
cmp <(strip_wall "$build/resume_ref.out" | head -n 2) \
    <(strip_wall "$build/resume_isolate.out" | head -n 2)
# fail_fast: same injection without --isolate aborts nonzero and reports
# the suppressed sibling ("and 1 more cell failed").
if RDCN_SUITE_FAULT="throw@zipf" "$build/rdcn_cli" suite "$build/resume_smoke.json" \
    --threads 1 > /dev/null 2> "$build/resume_failfast.err"; then
  echo "check.sh: fail_fast suite with injected fault exited 0" >&2
  exit 1
fi
grep -q "more cell" "$build/resume_failfast.err"
# Transient retry: the injection fires once per repetition, so a retry
# budget of 2 recovers and the output is bit-identical to the reference.
RDCN_SUITE_FAULT="transient@zipf" "$build/rdcn_cli" suite "$build/resume_smoke.json" \
    --threads 1 --attempts 2 --backoff-ms 1 > "$build/resume_retry.out" 2>/dev/null
cmp <(strip_wall "$build/resume_ref.out") <(strip_wall "$build/resume_retry.out")

echo "== benchmark self-test =="
# rdcnbench builds its own Release tree (.bench_build/rdcnbench) from src/
# and checks that its stream loop reproduces StreamRunner and that audited
# runs match unaudited ones; engine or runner changes must keep both true.
python3 "$repo/rdcnbench/run.py" --selftest

echo "check.sh: all stages passed"
