#!/bin/sh
# The CI gate: build everything (library code is warning-clean by
# construction: lib/dune promotes warnings to errors), run the full test
# suite, run the micro benchmarks, and compare them against the
# committed baseline — any micro metric more than 25% worse (including
# the cached-vs-uncached interpreter speedup) fails the gate, except
# where the baseline pins a per-section "<section>/_threshold" override
# (e.g. multicore). Override the default tolerance with BENCH_THRESHOLD
# (a fraction, e.g. 0.40) for noisy shared runners.
#
# How CI slices this script (.github/workflows/ci.yml):
#   - `test` runs the whole script (build, tests, CT gate, paging smoke,
#     fuzz smoke, bench + baseline compare) per compiler.
#   - `cores` runs the multi-core determinism differential below plus
#     the multicore bench section, and uploads bench-multicore-<compiler>.
#   - `cluster` runs the cluster console smoke below plus the cluster
#     test suite, a 500-case cluster-orderliness sweep and the cluster
#     bench section, and uploads bench-cluster-<compiler>.
#   - `fuzz` runs a longer occlum_fuzz sweep than the smoke here.
set -eu
cd "$(dirname "$0")/.."

# The perf gate needs python3; a runner without it must fail the gate,
# not silently skip the comparison.
command -v python3 >/dev/null 2>&1 || {
  echo "FAIL: python3 not found — the bench baseline compare cannot run" >&2
  exit 1
}

# `scripts/check.sh --only=SECTIONS` is a fast smoke: build, run just
# those bench sections and compare them against the committed baseline
# (e.g. `--only=serving` checks the C10K tier alone).
case "${1:-}" in
--only=*)
  echo "=== SMOKE ONLY (no tests): bench sections ${1#--only=} ==="
  dune build @all
  dune exec bench/main.exe -- "$1" --json _build/bench-smoke.json
  python3 scripts/compare_bench.py bench/baseline-micro.json \
    _build/bench-smoke.json --threshold "${BENCH_THRESHOLD:-0.25}"
  exit 0
  ;;
esac

dune build @all
dune runtest

# Constant-time gate: the CT checker must stay precise on the example
# workloads — the constant-time rewrite verifies clean (exit 0) and the
# deliberately leaky kernel stays flagged (exit 4, the CT exit code).
dune exec bin/occlum_cc.exe -- examples/ct_safe.ol -o _build/ct_safe.oelf
dune exec bin/occlum_verify.exe -- --ct _build/ct_safe.oelf
dune exec bin/occlum_cc.exe -- examples/ct_leaky.ol -o _build/ct_leaky.oelf
status=0
dune exec bin/occlum_verify.exe -- --ct _build/ct_leaky.oelf || status=$?
if [ "$status" -ne 4 ]; then
  echo "FAIL: ct_leaky expected exit 4 (CT findings), got $status" >&2
  exit 1
fi

# Residual-guard audit over the naive build of the leaky example: the
# JSON lands next to the bench results as a CI artifact.
dune exec bin/occlum_cc.exe -- examples/ct_leaky.ol -c naive -o _build/ct_naive.oelf
dune exec bin/occlum_verify.exe -- --guard-audit --json _build/guard-audit.json \
  _build/ct_naive.oelf

# Lint gate: the unified occlum_lint driver over the example workloads,
# SARIF artifacts in _build/lint/ (CI uploads them). The sfi builds may
# be clean (0) or carry findings (4) but never reject/malform; the naive
# guard_heavy build must have elidable guards (exit 4) and its --elide
# output must re-verify under the unmodified verifier — the elision
# trust argument, exercised end to end.
mkdir -p _build/lint
for ex in ct_safe ct_leaky hello guard_heavy; do
  dune exec bin/occlum_cc.exe -- "examples/$ex.ol" --verify -o "_build/lint/$ex.oelf"
  status=0
  dune exec bin/occlum_lint.exe -- "_build/lint/$ex.oelf" \
    --sarif "_build/lint/$ex.sarif" >/dev/null || status=$?
  if [ "$status" -ne 0 ] && [ "$status" -ne 4 ]; then
    echo "FAIL: occlum_lint $ex.oelf expected exit 0 or 4, got $status" >&2
    exit 1
  fi
done
dune exec bin/occlum_cc.exe -- examples/guard_heavy.ol -c naive --verify \
  -o _build/lint/guard_heavy_naive.oelf
status=0
dune exec bin/occlum_lint.exe -- _build/lint/guard_heavy_naive.oelf \
  --sarif _build/lint/guard_heavy_naive.sarif \
  --elide _build/lint/guard_heavy_naive.elided.oelf >/dev/null || status=$?
if [ "$status" -ne 4 ]; then
  echo "FAIL: naive guard_heavy expected elidable guards (exit 4), got $status" >&2
  exit 1
fi
dune exec bin/occlum_verify.exe -- _build/lint/guard_heavy_naive.elided.oelf || {
  echo "FAIL: elided guard_heavy rejected by the unmodified verifier" >&2
  exit 1
}
# Running the re-verified output is the one supported way to execute
# with fewer checks: the naive and the elided build must print
# bit-identical console output under occlum_run.
dune exec bin/occlum_run.exe -- _build/lint/guard_heavy_naive.oelf \
  | sed -n '/^---$/,/^---$/p' > _build/lint/naive-console.txt
dune exec bin/occlum_run.exe -- _build/lint/guard_heavy_naive.elided.oelf \
  | sed -n '/^---$/,/^---$/p' > _build/lint/elided-console.txt
grep -q "sum 231" _build/lint/elided-console.txt || {
  echo "FAIL: elided guard_heavy did not print its result" >&2
  exit 1
}
cmp _build/lint/naive-console.txt _build/lint/elided-console.txt || {
  echo "FAIL: naive and elided guard_heavy console output differ" >&2
  exit 1
}

# EPC paging smoke: the same workload must produce bit-identical console
# output under a pressured demand-paged pool (20K = 5 pages, small enough
# that the hello working set is evicted and reloaded) and under an
# uncapped non-paged pool.
dune exec bin/occlum_cc.exe -- examples/hello.ol --verify -o _build/hello.oelf
dune exec bin/occlum_run.exe -- _build/hello.oelf --epc-size 20K \
  | sed -n '/^---$/,/^---$/p' > _build/paging-console.txt
dune exec bin/occlum_run.exe -- _build/hello.oelf --no-paging \
  | sed -n '/^---$/,/^---$/p' > _build/nopaging-console.txt
cmp _build/paging-console.txt _build/nopaging-console.txt || {
  echo "FAIL: paged and non-paged console output differ" >&2
  exit 1
}

# Multi-core determinism smoke: the same binary under --cores=1 (twice)
# and --cores=4 must print bit-identical output — parallel SIP quanta on
# OCaml domains are a pure wall-clock accelerator. The full differential
# (Os.state_digest over FS + exit codes, plus the mc-determinism fuzz
# property) runs in `dune runtest` above and in the CI `cores` job.
dune exec bin/occlum_run.exe -- _build/hello.oelf --cores 1 \
  | sed -n '/^---$/,/^---$/p' > _build/cores1-console.txt
dune exec bin/occlum_run.exe -- _build/hello.oelf --cores 1 \
  | sed -n '/^---$/,/^---$/p' > _build/cores1b-console.txt
dune exec bin/occlum_run.exe -- _build/hello.oelf --cores 4 \
  | sed -n '/^---$/,/^---$/p' > _build/cores4-console.txt
cmp _build/cores1-console.txt _build/cores1b-console.txt || {
  echo "FAIL: two --cores=1 runs differ (lost reproducibility)" >&2
  exit 1
}
cmp _build/cores1-console.txt _build/cores4-console.txt || {
  echo "FAIL: --cores=1 and --cores=4 console output differ" >&2
  exit 1
}

# Cluster smoke: a seeded 3-node attested KV run is bit-reproducible
# (virtual clocks + seed-threaded traffic), and the same run under
# injected host-frame corruption must recover via re-attestation
# (exit 0, a bumped channel epoch) rather than wedge or fail.
dune exec bin/occlum_cluster.exe -- --digest > _build/cluster-a.txt
dune exec bin/occlum_cluster.exe -- --digest > _build/cluster-b.txt
cmp _build/cluster-a.txt _build/cluster-b.txt || {
  echo "FAIL: two seeded cluster runs differ (lost reproducibility)" >&2
  exit 1
}
dune exec bin/occlum_cluster.exe -- --fault corrupt --fault-at 2 \
  --fault-times 4 > _build/cluster-fault.txt || {
  echo "FAIL: cluster did not absorb injected frame corruption" >&2
  exit 1
}
grep -q "epoch 2" _build/cluster-fault.txt || {
  echo "FAIL: corrupted channel was not re-attested (no epoch bump)" >&2
  exit 1
}

# Bounded fuzz smoke: 200 cases of every property under the injected
# interrupt storm, with a fixed seed so the JSON report (a CI artifact)
# is bit-reproducible — a failing run prints the shrunk reproducer.
# This covers cluster-orderliness (property #9): hostile lifecycle
# sequences against the orderliness monitor, zero false accepts.
dune exec bin/occlum_fuzz.exe -- --seed 42 --cases 200 --shrink \
  --json _build/fuzz-report.json

dune exec bench/main.exe -- --only=micro,paging,serving,multicore,guards,jit,cluster \
  --json _build/bench-micro.json
python3 scripts/compare_bench.py bench/baseline-micro.json \
  _build/bench-micro.json --threshold "${BENCH_THRESHOLD:-0.25}"
