#!/bin/sh
# Configure, build and test the "checked" configuration: ASan + UBSan with
# KMS_CHECK_INVARIANTS=ON, so every Network surgery operation self-checks
# and every test runs under the sanitizers. One-line CI entry point:
#
#   tools/check_build.sh [extra ctest args...]
#
# Equivalent to: cmake --preset checked && cmake --build --preset checked
#                && ctest --preset checked
set -eu
cd "$(dirname "$0")/.."
cmake --preset checked
cmake --build --preset checked -j "$(nproc)"
ctest --preset checked -j "$(nproc)" "$@"
# The graceful-degradation property tests are the safety net for every
# resource-limited code path (aborted solves must never license a
# deletion); run them as their own stage so a regression is named in CI
# output even when someone passes a filter in "$@" that skips them.
echo "== fault-injection property tests (checked preset) =="
ctest --preset checked -R "FaultInjection" --output-on-failure

# SAT stage: the `sat` label covers the CDCL solver (random cross-checks
# against DPLL, and the property test that a reset solver behaves as a
# fresh one), the CNF encoder and ATPG. The KMS loop's sensitizer and
# every ATPG lane reset one solver per query instead of building a new
# one, so a reset that leaks state (a stale watch list, a dangling
# governor or proof sink) is named here, under the sanitizers.
echo "== sat-labelled tests (checked preset) =="
ctest --preset checked -L sat --output-on-failure

# Certificate pipeline stage: run the whole proof surface (DRAT checker,
# journal, session verification, encoder cross-check) under the
# sanitizers, then certify a real run over every example netlist with the
# instrumented binaries: kmscli emits journal+DRAT artifacts and
# self-verifies (--certify), and the independent kmsproof re-audits the
# artifact directory from disk. Any deletion without a verified UNSAT
# certificate fails CI here. --check runs the invariant checker between
# stages and audits the incremental timing tables after every loop
# edit; it is the only switch that runs that audit end to end.
echo "== proof-labelled tests (checked preset) =="
ctest --preset checked -L proof --output-on-failure
echo "== certified pipeline over examples/*.blif (checked preset) =="
BUILD_DIR=build-checked  # pinned by the preset's binaryDir
CERT_DIR=$(mktemp -d)
trap 'rm -rf "$CERT_DIR"' EXIT
for blif in examples/*.blif; do
  name=$(basename "$blif" .blif)
  echo "-- certify: $name"
  "$BUILD_DIR/tools/kmscli" irr "$blif" -o "$CERT_DIR/$name.out.blif" \
    --certify --check --emit-proof "$CERT_DIR/$name"
  "$BUILD_DIR/tools/kmsproof" "$CERT_DIR/$name"
done

# ThreadSanitizer stage: rebuild under -fsanitize=thread and run the
# parallel-labelled tests — the work-stealing removal engine's ticket
# queue, commit protocol (the coordinator alone fills the fault cache,
# at the pass barrier), and its jobs={1,2,4,8} determinism suite —
# plus the kmsloop label: the KMS pipeline's byte-identity suite at
# jobs 1 and 4, whose removal phase runs on the same pool. TSan and ASan cannot share a build, hence the
# separate preset/tree. Any data race in the worker/coordinator
# handshake fails CI here.
echo "== ThreadSanitizer: parallel-labelled tests (tsan preset) =="
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"
ctest --preset tsan -L parallel --output-on-failure
echo "== ThreadSanitizer: kmsloop-labelled tests (tsan preset) =="
ctest --preset tsan -L kmsloop --output-on-failure

# Repeat stage: the determinism contracts (byte-identical BLIF, journal
# and certificates at any jobs count; resume equal to an uninterrupted
# run) must hold under real concurrency, not just once. Run the labels
# that exercise worker scheduling twenty times over, all CPUs busy at
# once, so a schedule-dependent artifact fails CI here instead of
# intermittently elsewhere.
echo "== repeated parallel/kmsloop/crash/serve tests (checked preset) =="
ctest --preset checked -L 'parallel|kmsloop|crash|serve' \
  --repeat until-fail:20 -j "$(nproc)" --output-on-failure

# Crash-safety stage: the `crash` label covers the durability layer —
# WAL framing with torn-tail/bit-flip fuzzing, checkpoint serialization
# round-trips, the kill-point property suite (simulated crash at every
# reachable fsync/commit/checkpoint boundary, resume, bit-identical
# result at jobs 1 and 4), checkpoints equal at jobs 1 and 4 but for
# work counters, and the real-process e2e that sweeps
# KMS_CRASH_AT over kmscli and lands genuine SIGKILLs, auditing every
# resumed directory with kmsproof. Runs under the sanitizer build so a
# resume-path memory bug fails CI here, named.
echo "== crash-labelled tests (checked preset) =="
ctest --preset checked -L crash --output-on-failure

# Static-analysis engine stage: the `analysis` label covers the
# structural subsystem (levels, dominators, implications, SCOAP), the
# byte pins of `kmscli analyze` and NL017-NL021 output, the property
# suite that cross-checks every SAT-free untestability verdict against
# the exact SAT engine on the example corpus and random circuits, and
# the soundness of the fault collapsing the analysis shares with ATPG
# (collapse_soundness_test). Run it by name so a soundness regression
# in the verdicts behind lint and `kmscli analyze` is called out even
# when a filter in "$@" skipped it above.
echo "== analysis-labelled tests (checked preset) =="
ctest --preset checked -L analysis --output-on-failure

# Timing stage: the `timing` label covers the STA surface — the
# per-gate kernels, path enumeration, sensitization, and the
# incremental engine's property suite (randomized edit walks asserting
# the repaired arrival and suffix tables and delay bound equal a
# from-scratch recompute under exact double equality, KMS runs audited
# against TimingChecker after every repair, the NL022-NL028 tamper
# tests, and the timing rules' diagnostic cap).
echo "== timing-labelled tests (checked preset) =="
ctest --preset checked -L timing --output-on-failure

# Surgery stage: the `surgery` label covers the Network primitives
# (netlist_test), constant propagation, buffer collapsing and the
# one-round simplify on simple gates (transform_test), and the
# worklist surgery against the whole-network
# topological sweeps of tests/reference_surgery.hpp (loop_oracle_test,
# also in the timing stage). Run it by name so a surgery regression is
# called out in CI output.
echo "== surgery-labelled tests (checked preset) =="
ctest --preset checked -L surgery --output-on-failure

# Fault-simulation stage: the `faultsim` label covers the event-driven
# simulator against its whole-order reference, fault dropping against
# the full-list loop it replaced (detections, words simulated and rng
# draws, under governors that stop mid-run), replays against stored
# word sets against fresh simulation, generate_test_set pinned vector
# for vector, and the removal engine's per-ticket pre-drop and witness
# replay (redundancy_test). Run it by name so a regression in detection
# masks or dropping is called out in CI output.
echo "== faultsim-labelled tests (checked preset) =="
ctest --preset checked -L faultsim --output-on-failure

# Pinned-output stage: the `digest` label runs `kmscli irr` (run_job) at
# jobs 1 and 4 on carry-skip adders, a replicated datapath, the MCNC
# substitutes and the example netlists, and compares each output BLIF's
# FNV-1a digest with the value pinned in tests/output_digest_test.cpp.
# On four of them it also runs the certify job with --emit-proof and
# pins one digest over journal.txt and every q<N>.cnf and q<N>.drat, so
# a change to the certificate bytes is called out too.
# Run it by name so a change to the engine's output is called out in CI
# output even when a filter in "$@" skipped it above.
echo "== pinned output digests (checked preset) =="
ctest --preset checked -L digest --output-on-failure

# Bench-smoke stage: run removal on the quick circuit at lane counts
# 1, 2 and 4. bench_atpg exits 2 unless every lane count reproduces
# the one-lane removed count and result digest bit for bit.
echo "== bench smoke: bench_atpg --jobs 4 --quick (checked preset) =="
"$BUILD_DIR/bench/bench_atpg" --jobs 4 --quick

# Serving surface: the JobSpec/JobReport round-trip + run_job suite,
# the kmscli end-to-end tests (its stderr summary pinned byte for byte
# against the JobReport it renders) and the kmsd end-to-end tests (real
# daemon, real socket: kmscli byte-identity, cache hits, admission
# rejections, SIGTERM drain), then a
# load smoke — a few hundred mixed jobs from concurrent clients over
# the socket of a freshly spawned checked-build kmsd. The validator
# fails on schema violations, on any job without a terminal event, and
# on a ZERO cache-hit count: the workload resubmits every job, so a
# silent cache regression cannot pass this stage.
echo "== serve-labelled tests (checked preset) =="
ctest --preset checked -L serve --output-on-failure

echo "== serve smoke: kmsd_load.py --json (checked preset) =="
python3 tools/kmsd_load.py --kmsd "$BUILD_DIR/tools/kmsd" \
  --json "$CERT_DIR/BENCH_serve.json" --quick
python3 tools/validate_bench_serve.py "$CERT_DIR/BENCH_serve.json"

# clang-tidy stage: bug-prone and performance checks over the analysis
# subsystem, the removal engine and the journal (config in .clang-tidy;
# the `tidy` preset exports compile_commands.json). Gated on the tool being
# installed — the stage is advisory infrastructure, not a hard CI
# dependency, so environments without clang-tidy skip it with a notice
# instead of failing.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy: src/analysis + consumers (tidy preset) =="
  cmake --preset tidy
  clang-tidy -p build-tidy --quiet \
    src/analysis/*.cpp src/atpg/redundancy.cpp src/proof/journal.cpp
else
  echo "== clang-tidy not installed; skipping tidy stage =="
fi
