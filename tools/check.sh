#!/usr/bin/env bash
# Full robustness gate: plain build + tests, fault campaign, fuzz sweep,
# and (optionally) sanitized rebuilds. Run from anywhere; builds live
# next to the source tree's ./build* directories.
#
#   tools/check.sh                # build, ctest, 500-trial fault campaign
#   SBMP_SANITIZE=1 tools/check.sh   # + ASan/UBSan suite + TSan parallel
#   SBMP_FUZZ_SEEDS=200 tools/check.sh  # deepen the fuzz sweep
#
# Exits non-zero on the first failing stage.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "== build (default toolchain) =="
cmake -B "$root/build" -S "$root" >/dev/null
cmake --build "$root/build" -j "$jobs"

echo "== tier-1 tests =="
ctest --test-dir "$root/build" --output-on-failure -j "$jobs"

echo "== fault campaign (>=500 adversarial trials + mutation detection) =="
"$root/build/bench/bench_sweep" --faults 500

echo "== fuzz sweep (SBMP_FUZZ_SEEDS=${SBMP_FUZZ_SEEDS:-25}) =="
ctest --test-dir "$root/build" -L fuzz --output-on-failure -j "$jobs"

echo "== deep executor fuzz (exec_test, SBMP_FUZZ_SEEDS=3000) =="
# run() interprets a rewritten body: address arithmetic folded into the
# loads and stores, float ops fused with them, proven loads merged into
# the stores they feed. Its soundness rests on this differential sweep
# against the literal reference.
SBMP_FUZZ_SEEDS=3000 "$root/build/tests/exec_test" --gtest_brief=1

echo "== numeric flags are read whole (a typo is a usage error, exit 2) =="
# Parsed with atoi, `--chaos abc` once ran 0 chaos trials and passed,
# which would quietly empty CI's serving-path chaos campaign.
status=0
"$root/build/bench/bench_serve" --chaos abc >/dev/null 2>&1 || status=$?
if [[ "$status" -ne 2 ]]; then
  echo "bench_serve --chaos abc exited $status, want 2" >&2
  exit 1
fi

echo "== real-execution smoke (threads vs serial reference) =="
"$root/build/bench/bench_exec" --check "$root/BENCH_exec.json"

echo "== non-default machine and redundant-wait elimination end-to-end (compile + execute + daemon) =="
# One machine outside the paper's issue x FU grid (bounded signal
# buffer, asymmetric FU mix, a 2-cycle load) must travel the
# whole stack: local compile, real-thread execution, and the canonical
# desc over the daemon wire with byte-identical output.
mdesc='issue=8 fu=ls:2,mul:2 lat=load:2,muli:3,mul:3,div:6,*:1 buf=3'
"$root/build/tools/sbmpc" --machine "$mdesc" --execute "$root/samples/fig1.loop"
# The access-level redundant-wait pass drops one wait of the multi-writer
# sample; the reduced schedule must still run on 4 threads to the serial
# reference's memory.
"$root/build/tools/sbmpc" --eliminate --execute --execute-threads 4 "$root/samples/multiwriter.loop"
sock="$(mktemp -u "${TMPDIR:-/tmp}/sbmpd-check-XXXXXX.sock")"
"$root/build/tools/sbmpd" --socket "$sock" &
sbmpd_pid=$!
trap 'kill "$sbmpd_pid" 2>/dev/null || true' EXIT
for _ in $(seq 100); do [[ -S "$sock" ]] && break; sleep 0.1; done
if ! diff <("$root/build/tools/sbmpc" --machine "$mdesc" "$root/samples/fig1.loop") \
          <("$root/build/tools/sbmpc" --machine "$mdesc" --remote "$sock" "$root/samples/fig1.loop"); then
  echo "daemon round-trip diverged from local compile (machine: $mdesc)" >&2
  exit 1
fi
if ! diff <("$root/build/tools/sbmpc" --eliminate "$root/samples/multiwriter.loop") \
          <("$root/build/tools/sbmpc" --eliminate --remote "$sock" "$root/samples/multiwriter.loop"); then
  echo "daemon round-trip diverged from local compile (--eliminate)" >&2
  exit 1
fi
kill "$sbmpd_pid" 2>/dev/null || true
wait "$sbmpd_pid" 2>/dev/null || true
trap - EXIT

echo "== architecture sweep smoke (paper 4-point grid: fingerprint + corpus and random-draw T_b gates) =="
"$root/build/bench/bench_archsweep" --check "$root/BENCH_compile.json"

if [[ -n "${SBMP_SANITIZE:-}" ]]; then
  echo "== ASan+UBSan suite =="
  cmake -B "$root/build-asan" -S "$root" -DSBMP_SANITIZE=address >/dev/null
  cmake --build "$root/build-asan" -j "$jobs"
  ctest --test-dir "$root/build-asan" --output-on-failure -j "$jobs"

  echo "== TSan parallel-engine + serve + executor tests =="
  cmake -B "$root/build-tsan" -S "$root" -DSBMP_SANITIZE=thread >/dev/null
  cmake --build "$root/build-tsan" -j "$jobs"
  ctest --test-dir "$root/build-tsan" -L "parallel|serve|exec" --output-on-failure -j "$jobs"
fi

echo "== all checks passed =="
