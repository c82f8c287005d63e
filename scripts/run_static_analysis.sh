#!/usr/bin/env bash
#
# Static-analysis and sanitizer driver for the Harmonia model library.
#
# Stages (each in its own build tree, so they never poison the main
# ./build directory):
#
#   warnings   strict -Wall -Wextra -Wshadow -Werror build of
#              everything (src, tests, tools, examples)
#   lint       harmonia_lint: the project-contract analyzer (Layer 0
#              in docs/CHECKING.md) over the whole tree, with the
#              checked-in lint-baseline.txt applied — any new finding
#              fails the stage
#   tidy       clang-tidy with the repo .clang-tidy profile
#              (skipped with a notice when clang-tidy is absent)
#   asan       ASan+UBSan Debug build; tier-1 ctest suite, the
#              request-reader mutation corpus, the JSON writer and
#              tokenizer suite, the SIMD-vs-naive
#              equivalence suites, and
#              `harmonia_exp --run fig10` with --jobs 4
#   tsan       TSan build; the thread-pool, sweep-determinism and
#              invariant-checker tests, which exercise the thread
#              pool (the library's one lock) under every layer that
#              fans out over invocations: sensitivity sweeps,
#              training, the campaign and the checker
#   model      check_model: the 11-invariant physics check across
#              every (app x 448-config) point of the suite, through
#              the SIMD lattice kernels (the scalar backend is the
#              -DHARMONIA_SIMD=OFF build, covered in CI)
#
# Usage:
#   scripts/run_static_analysis.sh            # all stages
#   scripts/run_static_analysis.sh asan tsan  # just these stages
#
# Exits non-zero on the first failing stage.

set -u -o pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
STAGES=("$@")
[ ${#STAGES[@]} -eq 0 ] && STAGES=(warnings lint tidy asan tsan model)
FAILED=0

note() { printf '\n=== %s ===\n' "$*"; }

want() {
    local stage
    for stage in "${STAGES[@]}"; do
        [ "$stage" = "$1" ] && return 0
    done
    return 1
}

configure_and_build() { # <dir> <cmake-args...>
    local dir="$1"; shift
    cmake -S . -B "$dir" "$@" > "$dir.configure.log" 2>&1 || {
        echo "configure failed; see $dir.configure.log"; return 1; }
    cmake --build "$dir" -j "$JOBS" 2>&1 | tail -n 20
}

if want warnings; then
    note "strict warnings-as-errors build"
    configure_and_build build-werror \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DHARMONIA_WERROR=ON || FAILED=1
fi

if want lint; then
    note "source contracts (harmonia_lint)"
    if cmake -S . -B build-lint -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            > build-lint.configure.log 2>&1 \
        && cmake --build build-lint --target harmonia_lint \
            -j "$JOBS" 2>&1 | tail -n 2; then
        ./build-lint/tools/harmonia_lint --root . || FAILED=1
    else
        echo "lint build failed; see build-lint.configure.log"
        FAILED=1
    fi
fi

if want tidy; then
    note "clang-tidy"
    if command -v clang-tidy > /dev/null 2>&1; then
        # Needs a compile database; reuse (or create) the strict tree.
        if cmake -S . -B build-werror -DHARMONIA_WERROR=ON \
                -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
                > build-werror.configure.log 2>&1; then
            find src tools tests examples \
                    \( -name '*.cc' -o -name '*.cpp' \) -print0 \
                | xargs -0 clang-tidy -p build-werror --quiet \
                || FAILED=1
        else
            echo "configure failed; see build-werror.configure.log"
            FAILED=1
        fi
    else
        echo "clang-tidy not installed; skipping (profile: .clang-tidy)"
    fi
fi

if want asan; then
    note "ASan + UBSan (Debug, checks active)"
    configure_and_build build-asan \
        -DCMAKE_BUILD_TYPE=Debug \
        -DHARMONIA_ASAN=ON -DHARMONIA_UBSAN=ON || FAILED=1
    if [ "$FAILED" -eq 0 ]; then
        (cd build-asan && ctest -L tier1 -j "$JOBS" --output-on-failure \
            | tail -n 5) || FAILED=1
        # The request reader under the sanitizers: 2,000 seeded
        # mutations of the wire stream (truncations, bit flips, escaped
        # keys, nesting at the depth cap), and the writer and tokenizer
        # suite, which links the JsonValue tree library
        # (harmonia_json_tree) on top of the serve library. Also in
        # tier1 above; named here so the stage keeps them if the label
        # changes.
        ./build-asan/tests/test_serve_mutation > /dev/null || FAILED=1
        ./build-asan/tests/test_serve_json > /dev/null || FAILED=1
        # The SIMD-vs-naive bitwise-equivalence suites under the
        # sanitizers: the batching, table reuse, and partial-pack tail
        # loads/stores in the lattice path are exactly the kind of
        # code ASan/UBSan exists for.
        ./build-asan/tests/test_factored_engine > /dev/null || FAILED=1
        ./build-asan/tests/test_simd_equivalence > /dev/null || FAILED=1
        ./build-asan/tests/test_simd_shim > /dev/null || FAILED=1
        ./build-asan/tools/harmonia_exp --run fig10 --jobs 4 \
            > /dev/null || FAILED=1
    fi
fi

if want tsan; then
    note "TSan (thread pool + sweep determinism + checker fan-out)"
    configure_and_build build-tsan \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DHARMONIA_TSAN=ON || FAILED=1
    if [ "$FAILED" -eq 0 ]; then
        ./build-tsan/tests/test_thread_pool > /dev/null || FAILED=1
        ./build-tsan/tests/test_sweep_determinism > /dev/null || FAILED=1
        ./build-tsan/tests/test_invariants > /dev/null || FAILED=1
        echo "TSan runs clean"
    fi
fi

if want model; then
    note "model invariants (check_model)"
    configure_and_build build-werror \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DHARMONIA_WERROR=ON || FAILED=1
    if [ "$FAILED" -eq 0 ]; then
        ./build-werror/tools/check_model --jobs "$JOBS" | tail -n 3 \
            || FAILED=1
    fi
fi

if [ "$FAILED" -ne 0 ]; then
    note "FAILED"
    exit 1
fi
note "all requested stages passed"
