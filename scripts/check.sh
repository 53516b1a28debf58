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

# Host-fault guard: every untrusted host side keeps its fault schedule
# on the instance that owns it. No module-global hook setter (only the
# per-pool Epc.set_event_hook matches the pattern) and no module-level
# `option ref` hook may come back into the SGX or LibOS layers.
hooks=$(grep -rn "set_.*_hook" lib | grep -v "set_event_hook" || true)
refs=$(grep -rnE "option ref" lib/sgx lib/libos || true)
if [ -n "$hooks$refs" ]; then
  echo "FAIL: process-wide host-fault hook found; arm per instance:" >&2
  printf '%s\n%s\n' "$hooks" "$refs" >&2
  exit 1
fi

# Ring storage is per instance: every pipe and socket ring of a LibOS
# takes its buffers from the pool its Net holds, so no buffer passes
# between two booted LibOSes. lib/libos/ring.ml may hold no module-level
# mutable table, ref, stack, queue, record or pool.
pools=$(grep -nE "^let +[a-z_][A-Za-z0-9_']* *(:[^=]*)?= *(Hashtbl\.create|ref\b|Stack\.create|Queue\.create|pool +\(\)|\{)" \
  lib/libos/ring.ml || true)
if [ -n "$pools" ]; then
  echo "FAIL: module-level mutable state in lib/libos/ring.ml; keep ring pools per instance:" >&2
  printf '%s\n' "$pools" >&2
  exit 1
fi

# One host thread: the LibOS runs every simulated core's quanta on the
# thread that drives it, so no library code spawns a domain or takes a
# lock. Tests are exempt (test/test_util.ml spawns domains to check that
# SHA-256 keeps no shared state).
threads=$(grep -rnE "Domain\.spawn|Mutex\.|Condition\." lib || true)
if [ -n "$threads" ]; then
  echo "FAIL: domain or lock use under lib/; the simulator is single-threaded:" >&2
  printf '%s\n' "$threads" >&2
  exit 1
fi

# One run queue: every virtual core claims from the scheduler's single
# queue in one pass per epoch, so per-core queues, work stealing, steal
# backoff and futex-wake retargeting must not come back.
sched=$(grep -nE "steal|backoff|notify_wake" lib/libos/sched.ml || true)
if [ -n "$sched" ]; then
  echo "FAIL: per-core scheduling machinery in lib/libos/sched.ml:" >&2
  printf '%s\n' "$sched" >&2
  exit 1
fi

# One sealing construction: SEFS, the EPC pager and the cluster
# channels seal and open through Occlum_util.Seal, so none of them may
# call the cipher or a MAC (HMAC or keyed BLAKE2b) itself.
seal=$(grep -nE "Hmac\.(mac|verify)|Cipher\.encrypt|Blake2b\." lib/libos/sefs.ml \
  lib/sgx/epc.ml lib/cluster/channel.ml || true)
if [ -n "$seal" ]; then
  echo "FAIL: hand-written sealing outside lib/util/seal.ml:" >&2
  printf '%s\n' "$seal" >&2
  exit 1
fi

# One Stage 4: elision reads the verifier's range fixpoint from
# Verify.accepted and calls its obligation check (Verify.stage4_failures);
# the guard audit and OL003 report elision's classification. No other
# module may drive the engine that fixpoint runs on, lib/analysis may not
# keep its own copy of the Figure-4 walk, the optimizer and the verifier
# step states only through Range_lattice.insn_effect (so the lattice's
# stack and register helpers stay inside lib/range), and no separate
# guard-audit module may come back.
stage4=$(grep -rnE '\b(Range|R)\.Engine\b' lib | grep -v '^lib/verifier/range\.ml:' || true)
walk=$(grep -rnE '\b(let|and)( rec)? +(guarded_by|sp_mem)\b' lib/analysis || true)
effects=$(grep -rnwE 'push_effect|pop_effect|shift_reg|copy_reg' lib bin bench test \
  --include='*.ml' --include='*.mli' | grep -v '^lib/range/' || true)
arms=$(grep -nE '\b(Load|Store) *\{' lib/toolchain/optimize.ml lib/verifier/range.ml || true)
audit=$(find lib bin bench test -name 'guard_audit.ml*')
if [ -n "$stage4$walk$effects$arms$audit" ]; then
  echo "FAIL: a copy of Stage 4 outside lib/verifier and lib/range (read Verify.accepted / call Verify.stage4_failures / step with Range_lattice.insn_effect):" >&2
  printf '%s\n' "$stage4" "$walk" "$effects" "$arms" "$audit" >&2
  exit 1
fi

# One verification result: only lib/verifier builds the unit graph and
# runs the range fixpoint; every client reads both from the
# Verify.accepted that Verify.verify returns.
range=$(grep -rnE '\bRange\.(analyze|unit_graph)\b|Occlum_verifier\.Range\b' \
  lib bin bench test | grep -v '^lib/verifier/' || true)
if [ -n "$range" ]; then
  echo "FAIL: the range fixpoint recomputed outside lib/verifier (read Verify.accepted):" >&2
  printf '%s\n' "$range" >&2
  exit 1
fi

# Only an acceptance is signed: Verify.sign takes a Verify.accepted, so
# no other file in lib/ or bin/ may set a signature or name the signing
# key, and no Signer module that signs any binary may come back.
signing=$(grep -rnE 'signature *= *Some|verifier-signing-key' lib bin \
  | grep -v '^lib/verifier/verify\.ml:' || true)
signer=$( (find lib bin bench test -iname 'signer.ml*'; \
  grep -rnwE 'Signer' lib bin bench test --include='*.ml' --include='*.mli') || true)
if [ -n "$signing$signer" ]; then
  echo "FAIL: a signature minted outside Verify.sign:" >&2
  printf '%s\n%s\n' "$signing" "$signer" >&2
  exit 1
fi

# Enclave memory is stored on first touch: Mem.data (Mem.raw) covers
# only [0, extent), so an index past it is out of bounds. Only the fetch
# path (after its Exec check), the JIT's page-checked fast path and the
# tests that read the store as zeros past its end may reach it; every
# other caller goes through Mem's accessors, which grow the store.
raw=$(grep -rnE 'Mem\.(raw|data)\b' lib bin bench test \
  | grep -vE '^(lib/machine/(interp|decode_cache|jit)|test/test_(machine|jit|obs|libos))\.ml:' \
  || true)
if [ -n "$raw" ]; then
  echo "FAIL: Mem.raw or Mem.data read outside the fetch path, the JIT and their tests:" >&2
  printf '%s\n' "$raw" >&2
  exit 1
fi

# One process runner: a binary runs as a LibOS process (Os, whose Linux
# mode is the bare "native process" of Fig. 7 and RIPE's baseline), so
# every run reaches one syscall table; only the fuzz harness's lockstep
# Exec also steps binaries. No other code under lib/ may call the
# interpreter's run loop, and the bare-machine runner's library may not
# come back.
drivers=$(grep -rnE --include='*.ml' '\bInterp\.run\b' lib \
  | grep -vE '^(lib/machine/|lib/libos/os\.ml:|lib/fuzz/exec\.ml:)' || true)
baseline=$(grep -rnw --include=dune --exclude-dir=_build --exclude-dir=.bench_build \
  occlum_baseline . || true)
if [ -n "$drivers$baseline" ]; then
  echo "FAIL: a third process runner (run binaries through Os or Exec):" >&2
  printf '%s\n' "$drivers" "$baseline" >&2
  exit 1
fi

# No export that nothing names: every `val` in a lib/ interface must be
# named by some other source file (tests count), except in the user
# facade lib/core/occlum.mli.
python3 scripts/unused_exports.py

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
# JSON lands next to the bench results as a CI artifact. Its per-function
# counts must sum to its totals, and its totals must equal the elidable
# count occlum_lint reports for the same binary (both read elision's one
# classification).
dune exec bin/occlum_cc.exe -- examples/ct_leaky.ol -c naive -o _build/ct_naive.oelf
dune exec bin/occlum_verify.exe -- --guard-audit --json _build/guard-audit.json \
  _build/ct_naive.oelf
lint_out=$(dune exec bin/occlum_lint.exe -- _build/ct_naive.oelf) || true
python3 - _build/guard-audit.json "$lint_out" <<'PY' || exit 1
import json, re, sys
report = json.load(open(sys.argv[1]))
funcs = report["funcs"]
guards = sum(f["guards"] for f in funcs)
redundant = sum(f["redundant"] for f in funcs)
m = re.search(r"(\d+)/(\d+) mem_guard\(s\) elidable", sys.argv[2])
bad = []
if (guards, redundant) != (report["guards_total"], report["redundant_total"]):
    bad.append("per-function counts %d/%d do not sum to totals %d/%d"
               % (redundant, guards, report["redundant_total"], report["guards_total"]))
if len(report["findings"]) != report["redundant_total"]:
    bad.append("%d findings for %d redundant guards"
               % (len(report["findings"]), report["redundant_total"]))
if m is None:
    bad.append("no elidable count in occlum_lint's summary: %r" % sys.argv[2])
elif (int(m.group(1)), int(m.group(2))) != (report["redundant_total"], report["guards_total"]):
    bad.append("audit totals %d/%d differ from occlum_lint's %s/%s"
               % (report["redundant_total"], report["guards_total"], m.group(1), m.group(2)))
for b in bad:
    print("FAIL: guard audit: " + b, file=sys.stderr)
sys.exit(1 if bad else 0)
PY

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

# Single-step tracer smoke: occlum_trace places the loader's image of
# hello in a bare domain and steps it one instruction at a time; the
# program must reach its exit(0) within the step limit.
dune exec bin/occlum_trace.exe -- _build/hello.oelf --limit 100000 \
  > _build/trace-hello.txt
grep -q "exit(0)" _build/trace-hello.txt || {
  echo "FAIL: occlum_trace single-step of hello did not reach exit(0)" >&2
  exit 1
}

# SEFS image smoke: create an encrypted image with the occlum_sefs host
# tool, encrypt a host file into it and decrypt it back. The round trip
# must be byte-identical, the image must carry the current format
# version (SEFSIMG4, keyed BLAKE2b tags over length-prefixed labels),
# and its bytes must equal the pinned image: any change to a MAC, a
# nonce or the cipher moves its SHA-256.
rm -f _build/smoke.sefs
dune exec bin/occlum_sefs.exe -- create -i _build/smoke.sefs
dune exec bin/occlum_sefs.exe -- add -i _build/smoke.sefs \
  --from examples/hello.ol --to /src/hello.ol
dune exec bin/occlum_sefs.exe -- cat -i _build/smoke.sefs /src/hello.ol \
  > _build/smoke-cat.txt
cmp examples/hello.ol _build/smoke-cat.txt || {
  echo "FAIL: occlum_sefs add/cat round trip changed the file" >&2
  exit 1
}
[ "$(head -n 1 _build/smoke.sefs)" = "SEFSIMG4" ] || {
  echo "FAIL: occlum_sefs image is not format version 4" >&2
  exit 1
}
smoke_sefs_sha=0e29ebe032e29a6d968671672b988e5c5a8151839c424c11be59246fffa03d87
[ "$(sha256sum _build/smoke.sefs | cut -d' ' -f1)" = "$smoke_sefs_sha" ] || {
  echo "FAIL: occlum_sefs smoke image bytes changed (sha256 is not $smoke_sefs_sha)" >&2
  exit 1
}

# Multi-core determinism smoke: the same binary under --cores=1 (twice)
# and --cores=4 must print bit-identical output — the simulated cores
# change virtual time, never what a workload observes. The full differential
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
# interrupt storms and quanta, with a fixed seed so the JSON report (a
# CI artifact) is bit-reproducible — a failing run prints the shrunk
# reproducer.
# This covers cluster-orderliness (property #9): hostile lifecycle
# sequences against the orderliness monitor, zero false accepts.
dune exec bin/occlum_fuzz.exe -- --seed 42 --cases 200 --shrink \
  --json _build/fuzz-report.json

# The reference and tiered loops at volume. Both run in fuel quanta of
# 2-64 instructions, as the LibOS preempts, so this sweep covers the
# whole-block bodies the LibOS runs (the fuel covers the block) and the
# decoded replay of a quantum that ends inside a block.
dune exec bin/occlum_fuzz.exe -- -p jit-equivalence --seed 7 --cases 1000 \
  --shrink

# A compiled block runs as one body and checks the code epoch after a
# write; the per-unit dispatch and its revalidation flags must not come
# back.
if grep -nwE 'revalidate|unit_insns' lib/machine/jit.ml lib/machine/interp.ml; then
  echo "FAIL: per-unit revalidation reappeared in lib/machine (see docs/jit.md, Translation)" >&2
  exit 1
fi

# A Jit is bound to one memory: every body and continuation takes the
# CPU alone, so a unit's tail call is a one-argument call. A body type
# or a tail call that passes the memory again must not come back.
if grep -nE 'Mem\.t -> Cpu\.t -> ustat|k mem cpu' lib/machine/jit.ml; then
  echo "FAIL: a JIT body takes the memory again in lib/machine/jit.ml (see docs/jit.md, Host cost)" >&2
  exit 1
fi

# A memory operand is resolved into register offsets and a displacement
# when its block compiles, and each body computes the address inline. A
# per-operand address closure, an indirect call on every load and store,
# must not come back.
if grep -nE 'compile_ea|Cpu\.t -> int\b' lib/machine/jit.ml; then
  echo "FAIL: a per-operand address closure reappeared in lib/machine/jit.ml (see docs/jit.md, Host cost)" >&2
  exit 1
fi

# The direct path: the JIT reads and writes Mem.data unchecked only in
# data_load and data_store, whose callers proved the access lies in a
# page with a direct bit (per access, or once for a block's stack
# window), so inside the store. An unchecked accessor on mem.Mem.data
# anywhere else in lib/machine/jit.ml must not appear.
unchecked=$(awk '
  /^let/ { def = $0; sub(/^let(\[@[a-z ]*\])? +(rec +)?/, "", def); sub(/[^A-Za-z0-9_].*/, "", def) }
  /(unsafe_get|unsafe_set|get64u|set64u)[ (]*mem\.Mem\.data/ && def != "data_load" && def != "data_store" {
    print FILENAME ":" FNR ": " $0 }
' lib/machine/jit.ml)
if [ -n "$unchecked" ]; then
  echo "FAIL: an unchecked Mem.data access outside Jit.data_load/data_store (see docs/jit.md, The page-check byte):" >&2
  printf '%s\n' "$unchecked" >&2
  exit 1
fi

# A compiled block charges its counters once, on entry, and only its
# cold paths rebuild the reference's counters and pc. A per-unit charge,
# or the wrapper that compared the code epoch around every writing unit
# (the write path compares it on its checked branch), must not come
# back.
if grep -nE 'charge_n|charge cpu|let checked|checked mem b' lib/machine/jit.ml; then
  echo "FAIL: per-unit bookkeeping reappeared in lib/machine/jit.ml (see docs/jit.md, Translation)" >&2
  exit 1
fi

# One syscall table: every syscall is reached through one lookup by
# number in Os, and a table entry's batch field is the one list of calls
# a batch may not carry. A chain of number comparisons must not come
# back.
if grep -nE 'nr = Sys\.' lib/libos/os.ml; then
  echo "FAIL: a syscall-number comparison reappeared in lib/libos/os.ml (dispatch through the syscall table)" >&2
  exit 1
fi

# Seed-corpus reproducibility: the checked-in minimized corpus is
# exactly what the generator emits for seed 42, byte for byte.
rm -rf _build/corpus
mkdir -p _build/corpus
dune exec bin/occlum_fuzz.exe -- --seed 42 --emit-corpus _build/corpus
diff -r _build/corpus test/corpus || {
  echo "FAIL: occlum_fuzz --seed 42 --emit-corpus differs from test/corpus" >&2
  exit 1
}

# Respawn keeps translations: fish's tools respawn into the slots they
# last ran in, where the loader leaves every byte-identical code page
# (and its generation) alone, so a traced shell run drops no compiled
# block.
dune exec bench/e2e/main.exe -- --workload shell --quick --trace 1 \
  --trace-dir _build/e2e-trace > _build/e2e-shell-trace.txt
inval=$(awk '$1 == "machine.jit_invalidations_per_op" { print $2 }' \
  _build/e2e-shell-trace.txt)
[ "$inval" = "0" ] || {
  echo "FAIL: traced shell run invalidates ${inval:-?} JIT blocks per op, expected 0" >&2
  exit 1
}

dune exec bench/main.exe -- --only=micro,paging,serving,multicore,guards,jit,cluster \
  --json _build/bench-micro.json
python3 scripts/compare_bench.py bench/baseline-micro.json \
  _build/bench-micro.json --threshold "${BENCH_THRESHOLD:-0.25}"
