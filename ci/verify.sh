#!/usr/bin/env bash
# Tier-1 verification: hermetic build + tests, entirely offline.
#
# Lanes, in order: resolved-graph, [lints], dead-manifest-edge and
# production-graph guards, `cargo fmt --check`, clippy with every warning
# an error (the unsafe, lock and determinism checks included), the
# variant-runner guard (no kernel file but variant.rs opens a span, a
# tile bracket or a pool, no kernel file wraps an image for tile writes
# itself, and neither the CLI nor the daemon opens a span: the runner
# numbers a run's iterations), the cold-helper guard
# (no `#[cold]` `#[inline(never)]` function in ezp-sched or ezp-core
# takes a struct by value), workspace build + tests (the ezp-chan
# explorer included, and tests/ordering_arguments.rs, which checks every
# written atomic-ordering argument within its 5-second budget), the one-image memory lane
# (a 2048² in-place `mandel` run's VmHWM stays under 28 MiB), the fault
# lane (`dispatch_fine`'s command line takes at most 600 minor faults
# where transparent huge pages are on), results/
# regenerated and diffed, ezp-check + conformance matrix (its
# two-worker smoke included), the frozen benchmark's own tests and two
# short runs (observe_record, and serve_jobs, whose client decodes every
# `done` frame and checks its digest).
# Hostile and retired command lines are not lanes here: they are cases
# of the table-driven tests in crates/cli (docs/testing.md), and so are
# the --stats, --explain and --stream runs and the daemon's over-quota
# submit (`stats_json_reports_nonzero_task_counts`,
# `explain_flag_appends_causal_profile`,
# `stream_mode_runs_a_demo_and_reports_counters`,
# `serve_subcommand_runs_until_remotely_stopped`). No lane gates speed:
# that is measured by benchmark/ (BENCHMARK.json) alone.
#
# The workspace must build and pass its test suite without touching a
# cargo registry. Every build below runs --offline, which cannot resolve
# a registry dependency in the first place; a resolved one leaves a
# `source = ` line in a lockfile, transitive dependencies included, so
# that is what the guard reads.
set -euo pipefail
cd "$(dirname "$0")/.."

if grep -n '^source = ' Cargo.lock benchmark/Cargo.lock; then
    echo "error: a lockfile resolves a non-path dependency (matches above);" >&2
    echo "use the in-tree substitutes (DESIGN.md, Hermetic build & testkit)." >&2
    exit 1
fi
# The deny lints of [workspace.lints] reach a crate only if it inherits them.
if grep -L '^\[lints\]' Cargo.toml crates/*/Cargo.toml | grep .; then
    echo "error: the manifests above lack \`[lints] workspace = true\`." >&2
    exit 1
fi
# Dead-edge guard: a dependency-table line `ezp-x` ([features] rows are not
# edges) must be named, as `ezp_x`, by some .rs file of that package.
for m in Cargo.toml crates/*/Cargo.toml; do
    d="$(dirname "$m")"; [ "$d" = . ] && d="src tests examples"
    for dep in $(awk '/^\[/{t=/^\[(dev-)?dependencies\]/} t&&/^ezp-/{sub(/[ .=].*/,"");print}' "$m"); do
        grep -rqw --include='*.rs' "${dep//-/_}" $d ||
            { echo "error: $m depends on $dep, which none of its sources names." >&2; exit 1; }
    done
done

# Production-graph lane (docs/channels.md): nothing that ships sends or
# receives on ezp-chan — the crate is in the tree only for the frozen
# benchmark's chan.* cells. Neither a manifest nor a resolved graph may
# grow the edge back.
if grep -rn 'ezp[-_]chan' --include=Cargo.toml crates src \
    | grep -v '^crates/chan/Cargo.toml:'; then
    echo "error: a manifest depends on ezp-chan again (matches above)." >&2
    exit 1
fi
for pkg in easypap-cli ezp-serve ezp-mpi ezp-kernels; do
    if cargo tree --offline -e normal -p "$pkg" | grep 'ezp-chan'; then
        echo "error: $pkg reaches ezp-chan through its normal dependencies." >&2
        exit 1
    fi
done
echo "verify: no production package depends on ezp-chan"

# Toolchain lanes (docs/static-analysis.md): the tree is rustfmt-clean,
# and clippy passes with every warning an error. The clippy run also
# holds the checks a line linter used to approximate:
# `undocumented_unsafe_blocks` and `missing_safety_doc`
# ([workspace.lints.clippy] in Cargo.toml), and the clippy.toml lists of
# lock types, clocks and hash-seeded collections, denied outside tests
# at the top of the scheduler hot-path and seed-replayed files.
# `--features ezp-check` compiles vexec.rs and shadow.rs; nothing is
# gated on the feature's absence, so one run covers every configuration.
cargo fmt --check || {
    echo "error: the tree is not rustfmt-clean; run \`cargo fmt\`." >&2
    exit 1
}
cargo clippy -q --offline --workspace --all-targets --features ezp-check -- -D warnings
echo "verify: rustfmt-clean, clippy-clean"

# Variant-runner lane (crates/kernels/src/variant.rs): a kernel is a
# VARIANTS table of per-iteration bodies. The runner alone opens
# iteration spans and acquires the pool, and ezp_sched's tile loops
# (parallel_for_tiles, for_each_tile) alone report tiles, so no other
# kernel file may spell any of them. The runner also numbers the run's
# iterations across `compute` calls (KernelCtx::iterations_done), so the
# code that drives kernels (crates/cli, crates/serve) opens no span
# either: a probe wrapper that renumbers them cannot come back. A kernel
# gets its TileWriter only from the tile loop
# (ezp_sched::parallel_for_tiles_img, with or without a pool), never by
# wrapping an image in an ImgCell itself: that is what keeps a `seq` row
# and the pool rows on one tile body, not a second loop beside it.
if grep -rnE '\.(iteration_start|iteration_end|start_tile|end_tile)\(|acquire_pool\(' \
    --include='*.rs' crates/kernels/src | grep -v '^crates/kernels/src/variant.rs:'; then
    echo "error: a kernel opens its own iteration span, tile bracket or pool" >&2
    echo "       (matches above): declare a VARIANTS row, report tiles through" >&2
    echo "       ezp_sched::for_each_tile or parallel_for_tiles." >&2
    exit 1
fi
if grep -rnE '\.(iteration_start|iteration_end)\(' --include='*.rs' crates/cli/src crates/serve/src; then
    echo "error: a kernel driver opens an iteration span (matches above):" >&2
    echo "       the variant runner numbers a run's iterations; call" >&2
    echo "       Kernel::compute on one KernelCtx instead." >&2
    exit 1
fi
if grep -rn 'ImgCell::new(' --include='*.rs' crates/kernels/src; then
    echo "error: a kernel wraps an image for tile writes itself (matches above):" >&2
    echo "       write tiles through ezp_sched::parallel_for_tiles_img, with no" >&2
    echo "       pool for a sequential row, from the kernel's one tile body." >&2
    exit 1
fi
echo "verify: only the variant runner opens spans and pools in crates/kernels, cli and serve"
echo "verify: no kernel wraps an image for tile writes outside the tile loop"

# Cold-helper lane (crates/sched/src/img_cell.rs, docs/profiling.md *Hot
# path*): the out-of-line panic behind a per-row or per-pixel check takes
# scalars. A struct by value (`t: Tile`, `g: TileGrid`, `img: Img2D<T>`)
# is passed in memory, so the inlined caller stores it to the stack on
# every row even though the panic never runs. The guard reads the
# signature after each `#[cold]`/`#[inline(never)]` pair and refuses a
# parameter whose type is a capitalised name rather than a reference or a
# primitive.
if awk 'FNR == 1 { a = b = ""; sig = "" }
    sig != "" { sig = sig " " $0 }
    sig == "" && /^[[:space:]]*((pub(\([a-z]+\))?|const|unsafe|extern[^f]*)[[:space:]]+)*fn[[:space:]]/ &&
        ((a ~ /#\[cold\]/ && b ~ /#\[inline\(never\)\]/) ||
         (a ~ /#\[inline\(never\)\]/ && b ~ /#\[cold\]/)) { sig = $0; at = FILENAME ":" FNR }
    sig != "" && sig ~ /[{;]/ {
        if (sig ~ /[(,][[:space:]]*(mut[[:space:]]+)?[a-z_][a-z0-9_]*[[:space:]]*:[[:space:]]*[A-Z]/)
            { print at ": " sig; bad = 1 }
        sig = ""
    }
    /[^[:space:]]/ { a = b; b = $0 }
    END { exit !bad }' $(find crates/sched/src crates/core/src -name '*.rs'); then
    echo "error: a cold helper takes a struct by value (matches above): pass" >&2
    echo "       its fields as scalars (crates/sched/src/img_cell.rs)." >&2
    exit 1
fi
echo "verify: every cold helper in ezp-sched and ezp-core takes scalars"

# --workspace matters: the root package alone builds and tests neither
# the easypap-cli binaries nor the crates' own tests.
cargo build --release --offline --workspace
cargo test -q --offline --workspace

# Memory lane (docs/observability.md, *Memory*): an in-place kernel holds
# one image. `mandel` paints `cur` and never allocates `next`, so a 2048²
# run (one RGBA image is 16 MiB) peaks near 20 MiB; a second image would
# put it near 35. The poll reads VmHWM while the process lives (a
# zombie's status has none) and fails the lane above 28 MiB.
mem_dir="$(mktemp -d)"
(
    cd "$mem_dir"
    "$OLDPWD/target/release/easypap" --kernel mandel --variant omp_tiled --size 2048 \
        --tile-size 32 --iterations 1 --no-display >/dev/null &
    pid=$!
    peak=0
    while kill -0 "$pid" 2>/dev/null; do
        v="$(awk '/VmHWM/{print $2}' "/proc/$pid/status" 2>/dev/null || true)"
        [ -n "$v" ] && [ "$v" -gt "$peak" ] && peak=$v
    done
    wait "$pid"
    if [ "$peak" -eq 0 ] || [ "$peak" -gt $((28 * 1024)) ]; then
        echo "error: a 2048² mandel run peaked at $peak kB VmHWM, over 28 MiB:" >&2
        echo "       does an in-place kernel allocate the next image again?" >&2
        exit 1
    fi
    echo "verify: 2048² mandel omp_tiled peaks at $peak kB, one image's worth"
)
rm -rf "$mem_dir"

# Fault lane (docs/observability.md, *Memory*): the binaries' allocator
# maps each block of 2 MiB or more on huge pages, so `dispatch_fine`'s
# command line (two 4 MiB images) takes about 130 minor faults, not the
# 2 170 of one fault per 4 KiB page. `wait4` gives the child's own
# count. Where transparent huge pages are off, the lane says so and
# skips: every page is a small one there.
thp="$(cat /sys/kernel/mm/transparent_hugepage/enabled 2>/dev/null || true)"
if [[ "$thp" == *"[always]"* || "$thp" == *"[madvise]"* ]]; then
    easypap="$PWD/target/release/easypap"
    fault_dir="$(mktemp -d)"
    faults="$(cd "$fault_dir" && python3 -c '
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
sys.exit(f"the run failed: wait status {status}") if status else print(usage.ru_minflt)
' "$easypap" --kernel scrollup --variant omp_tiled --size 1024 \
        --tile-size 8 --schedule dynamic,1 --iterations 2 --threads 2 --seed 1 --no-display)"
    rm -rf "$fault_dir"
    if [ "$faults" -gt 600 ]; then
        echo "error: dispatch_fine's command line took $faults minor faults, over 600:" >&2
        echo "       are the binaries' large blocks off huge pages again?" >&2
        exit 1
    fi
    echo "verify: dispatch_fine's command line takes $faults minor faults on huge pages"
else
    echo "verify: fault lane skipped: transparent huge pages are '${thp:-absent}' here"
fi

# Figure lane (results/README.md): the virtual-time figure binaries are
# pure functions of the code, so what results/ holds must be exactly
# what they print today. Figs. 12 and 13 are wall-clock captures, and
# only their lines that depend on neither timing nor thread placement
# are diffed: Fig. 12's two virtual-time lines (the task-graph replay on
# 4 virtual CPUs), and Fig. 13's live cells, each rank's computed tiles
# per half, the tiles near a diagonal and the lazy-evaluation saving
# (EXPERIMENTS.md row 13). A diff here means a scheduling, simulator,
# kernel-cost or MPI change moved a figure: rerun the binary, commit its
# output, and update the matching EXPERIMENTS.md row. The binaries drop
# their .svg/.csv side files in the cwd, hence the temp dir.
cargo build -q --offline --release -p ezp-bench
fig_dir="$(mktemp -d)"
(
    cd "$fig_dir"
    for fig in fig03_monitoring fig04_schedules fig06_speedup \
               fig08_patterns ablation; do
        "$OLDPWD/target/release/$fig" > "$fig.txt"
        diff -u "$OLDPWD/results/$fig.txt" "$fig.txt" || {
            echo "error: results/$fig.txt is not what $fig prints (diff above)" >&2
            exit 1
        }
    done
    # fig, how many of its lines, and the pattern they match
    diff_lines() {
        committed="$(grep -E "$3" "$OLDPWD/results/$1.txt")"
        [ "$(wc -l <<< "$committed")" -eq "$2" ] && diff -u <(echo "$committed") \
            <("$OLDPWD/target/release/$1" | grep -E "$3") || {
            echo "error: results/$1.txt's deterministic lines are not" >&2
            echo "       what $1 prints (diff above)" >&2
            exit 1
        }
    }
    diff_lines fig12_wavefront 2 '^virtual-time check on 4 CPUs:|^critical path .* vs makespan '
    diff_lines fig13_mpi_life 5 \
        '^live cells:|^computed tiles:|^tiles computed near a diagonal:|^lazy-evaluation saving:'
)
rm -rf "$fig_dir"
echo "verify: results/ matches the five deterministic figures and Figs. 12 and 13's deterministic lines"

# Tier 2: deterministic concurrency checking (see docs/testing.md).
# The ezp-check feature compiles the virtual-scheduler executor and the
# shadow-write race detector, and unlocks the full conformance matrix
# (every kernel x variant x policy x {1,2,4,8} workers). Kept out of the
# workspace-wide run above so tier-1 wall-clock stays flat; the feature
# adds nothing to a default build.
cargo test -q --offline -p ezp-sched -p ezp-core --features ezp-check
cargo test -q --offline -p easypap --features ezp-check

# End-to-end benchmark lane (benchmark/README.md): the frozen benchmark
# must still build against the workspace, pass its own unit tests, and
# complete a short `observe_record` run — a monitored, traced,
# --stats=json run read back by `easyview explain` — with every output
# check of its own passing (.ezv re-encode identity, PPM identity, task
# and row counts), then a short `serve_jobs` run, whose frozen client
# decodes each `done` frame of a spawned `easypap serve` and checks its
# digest. Exit status only: two seconds on a CI host say nothing about
# speed, so no metric is gated here.
(cd benchmark && cargo test -q --offline)
bash benchmark/run.sh --workload observe_record --seed 1 --seconds 2 --trace 0 >/dev/null
bash benchmark/run.sh --workload serve_jobs --seed 1 --seconds 2 --trace 0 >/dev/null
echo "verify: benchmark builds, its tests pass, observe_record and serve_jobs output checks pass"

echo "verify: OK (offline build + tests green, no registry deps, results/ reproduced, benchmark checks pass)"
