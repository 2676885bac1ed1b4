#!/usr/bin/env bash
# Full verification: clean build + tier-1 tests, a Release build with
# bench_micro + mdw_workload smokes (catches perf-path code that only
# breaks under -O2; the service-layer smoke asserts coalescing actually
# fires, a 64x64 run bounds the per-node memory footprint, and nm shows
# that mdw_workload keeps the default operator new), a build
# of the perfbench benchmark binary (same allocator check) with one short
# traced paper-grids run and one untraced svc-write run, each of which must
# print its pinned sim_fingerprint (it compiles against src/ headers
# directly, so an API change that breaks it shows here), and, where perf
# is available, a cache-miss snapshot of one zipf-32x32-mima run; then a
# rebuild of the observability, service and protocol tests under ASan/UBSan
# (a handler that reads a node's MSHR record after it is erased shows here), a
# UBSan-only build running the complete tier-1 test list (UB in the
# protocol/planner hot paths shows up here without ASan's run-time cost),
# and a TSan build of the sweep, worm-pool and service tests (catches data
# races in the thread-pool grid runner, the only multi-threaded code).
#
# No stage reads a committed benchmark result.  Throughput is checked
# before a merge by `python3 scripts/perf_ab.py`, an interleaved A/B of
# perfbench between HEAD and the working tree (about 80 minutes; README
# "Measuring a change").
#
#   $ scripts/verify.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
REL_BUILD="${BUILD}-release"
BENCH_BUILD="${BUILD}-perfbench"
SAN_BUILD="${BUILD}-asan"
UBSAN_BUILD="${BUILD}-ubsan"
TSAN_BUILD="${BUILD}-tsan"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# The counting operator new of tests/alloc_guard.cpp belongs to
# test_alloc_guard alone.  A binary whose symbols list its counter has the
# replacement allocator linked in, and pays for it on every allocation.
check_default_allocator() {
  local syms
  syms="$(nm -C "$1")"
  if grep -q alloc_guard_new_calls <<<"$syms"; then
    echo "verify: $1 links the counting allocator of tests/alloc_guard.cpp" >&2
    exit 1
  fi
  echo "default operator new: $1"
}

# Run a perfbench unit ("$@") and fail unless it exits 0 and prints
# sim_fingerprint $1.  The output is captured before grep reads it, and
# printed either way.  A change that moves a fingerprint on purpose updates
# the constant at the call and says why.
check_fingerprint() {
  local want="$1" out rc=0
  shift
  out="$("$@")" || rc=$?
  echo "$out"
  if ((rc != 0)); then
    echo "verify: $* exited $rc" >&2
    exit 1
  fi
  if ! grep -qx "sim_fingerprint $want" <<<"$out"; then
    echo "verify: $* did not print sim_fingerprint $want" >&2
    exit 1
  fi
}

echo "=== tier-1: configure + build + ctest (${BUILD}) ==="
cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j "$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

echo
echo "=== release: -O3 build + bench_micro + mdw_workload smokes (${REL_BUILD}) ==="
cmake -B "$REL_BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$REL_BUILD" -j "$JOBS" \
    --target bench_micro test_determinism mdw_workload_cli
"$REL_BUILD"/tests/test_determinism
check_default_allocator "$REL_BUILD"/src/workload/mdw_workload
"$REL_BUILD"/src/workload/mdw_workload --gen=zipfian --mesh=8x8 \
    --ops=20000 --blocks=256 --warmup=1024
# Service layer: pipelined + coalescing home on a write-heavy stream; the
# run must complete AND actually merge transactions (--require-coalesce).
"$REL_BUILD"/src/workload/mdw_workload --mesh=16x16 --gen=write-heavy \
    --ops=50000 --blocks=512 --outstanding=4 --depth=8 --coalesce=32 \
    --require-coalesce
# Per-node footprint at a mesh size no benchmark workload reaches: node
# state is allocated on first use (DESIGN.md section 11) and no plan or
# route memo table fills up (section 12), so this 64x64 run peaks near
# 35 MB.  The memo tables took it to 38.5 MB and dense per-node caches to
# 130 MB.  The child's peak RSS (ru_maxrss) must stay under 64 MB.
python3 - "$REL_BUILD"/src/workload/mdw_workload <<'PY'
import resource, subprocess, sys
rc = subprocess.call([sys.argv[1], "--mesh=64x64", "--scheme=EC-CM-HG",
                      "--ops=8192", "--warmup=1024", "--no-windows"])
mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
print("64x64 footprint smoke: peak RSS %.1f MB (limit 64 MB)" % mb)
sys.exit(rc if rc != 0 else (1 if mb > 64 else 0))
PY
"$REL_BUILD"/bench/bench_micro --benchmark_min_time=0.05

echo
echo "=== benchmark: perfbench build + paper-grids and svc-write fingerprints + perf snapshot (${BENCH_BUILD}) ==="
# One traced unit of e3+e4+e5+e8: every point completes with a positive
# invalidation latency, the traced and untraced runs give the same
# fingerprint, and four E3/E4 values match EXPERIMENTS.md; any miss exits
# non-zero.  (The grid points are not checked for coherence; the stream
# workloads are.)  Its fingerprint must be the pinned one.  Then one
# untraced unit of svc-write-16x16-uiua (about 8 s), the only benchmark
# workload whose homes coalesce invalidations, must print its pinned one.
cmake -S perfbench -B "$BENCH_BUILD" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BENCH_BUILD" -j "$JOBS"
check_default_allocator "$BENCH_BUILD"/perfbench
check_fingerprint 0xa5f5b62b6ada5a73 \
    "$BENCH_BUILD"/perfbench --workload paper-grids --seed 1 --seconds 1 --trace 1
check_fingerprint 0xbe1fe032b5f36b98 \
    "$BENCH_BUILD"/perfbench --workload svc-write-16x16-uiua --seed 1 --seconds 1 --trace 0
# Cache-behaviour snapshot of the SoA router arena on the dense workload
# (EXPERIMENTS.md E13 has the methodology).  perf needs both the binary and
# the kernel's permission (perf_event_paranoid), so probe with a real
# counter read and skip quietly when either is missing — CI boxes and
# containers often have no perf.
if command -v perf >/dev/null 2>&1 && \
   perf stat -e cache-misses true >/dev/null 2>&1; then
  echo "--- perf stat: cache misses, zipf-32x32-mima ---"
  perf stat -e cache-references,cache-misses \
      "$BENCH_BUILD"/perfbench --workload zipf-32x32-mima --seed 1 \
      --seconds 1 --trace 0 2>&1 | tail -8
else
  echo "perf unavailable (not installed or not permitted): cache-miss snapshot skipped"
fi

echo
echo "=== sanitizers: ASan/UBSan build, obs + worm-pool + stream + protocol tests (${SAN_BUILD}) ==="
cmake -B "$SAN_BUILD" -S . -DMDW_SANITIZE=address,undefined >/dev/null
cmake --build "$SAN_BUILD" -j "$JOBS" \
    --target test_obs_metrics test_worm_pool test_stream test_synthetic \
    test_svc test_protocol test_protocol_stress test_consistency \
    test_machine_checker
ctest --test-dir "$SAN_BUILD" \
    -R 'obs|worm_pool|stream|synthetic|svc|protocol|consistency|machine_checker' \
    --output-on-failure

echo
echo "=== sanitizers: UBSan build, full tier-1 test list (${UBSAN_BUILD}) ==="
cmake -B "$UBSAN_BUILD" -S . -DMDW_SANITIZE=undefined >/dev/null
cmake --build "$UBSAN_BUILD" -j "$JOBS"
ctest --test-dir "$UBSAN_BUILD" --output-on-failure -j "$JOBS"

echo
echo "=== sanitizers: TSan build, sweep + worm-pool + service tests (${TSAN_BUILD}) ==="
cmake -B "$TSAN_BUILD" -S . -DMDW_SANITIZE=thread >/dev/null
cmake --build "$TSAN_BUILD" -j "$JOBS" \
    --target test_sweep test_worm_pool test_svc
ctest --test-dir "$TSAN_BUILD" -R 'sweep|worm_pool|svc' \
    --output-on-failure

echo
echo "verify: OK"
