#!/usr/bin/env bash
# Tier-1 verification: hermetic build + tests, entirely offline.
#
# Lanes, in order: resolved-graph, [lints], dead-manifest-edge and
# production-graph guards, ezp-lint, workspace build + tests (the
# ezp-chan explorer included), results/ regenerated and diffed,
# ezp-check + conformance matrix (its two-worker smoke included), the
# frozen benchmark's own tests and one short run.
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

# Static analysis lane (docs/static-analysis.md): ezp-lint enforces what
# no compiler lint reads — SAFETY: comments on unsafe, ORDERING:
# justifications and acquire/release pairing on weak atomics, no lock
# types in the scheduler hot-path files, seed-replay determinism in the
# ezp-check modules. It runs before the build lanes: the linter is
# std-only and compiles even when the rest of the tree is broken. The
# JSON report feeds the budget check below and is not kept; on failure
# the human-readable rerun prints the findings.
lint_report="$(mktemp)"
if ! cargo run -q --offline -p ezp-lint -- --format=json > "$lint_report"; then
    cargo run -q --offline -p ezp-lint || true
    echo "error: ezp-lint found violations (rules + suppression syntax:" >&2
    echo "       docs/static-analysis.md)." >&2
    exit 1
fi
# The version-2 report carries the pass's finding count and wall-time;
# echo them into the log and fail the lane if the whole lint run blew
# its 5-second budget — the cross-file pass regressing into quadratic
# behaviour on workspace growth should be a CI failure, not slow creep.
if command -v python3 >/dev/null 2>&1; then
    python3 - "$lint_report" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for p in doc["passes"]:
    print(f"verify: lint pass {p['name']}: {p['findings']} finding(s) "
          f"in {p['wall_ms']:.1f} ms")
total = doc["total_ms"]
if total > 5000:
    sys.exit(f"verify: lint run took {total:.0f} ms, over the 5000 ms budget")
print(f"verify: lint lane within budget ({total:.0f} ms of 5000 ms)")
EOF
else
    # Fallback: the pass must be present in the report; no budget
    # arithmetic without python3.
    grep -q '"name": *"atomics-pairing"' "$lint_report"
    echo "verify: lint pass present in report (grep fallback, no budget check)"
fi
rm -f "$lint_report"
echo "verify: ezp-lint clean"

# --workspace matters: the root package alone builds and tests neither
# the easypap-cli binaries nor the crates' own tests.
cargo build --release --offline --workspace
cargo test -q --offline --workspace

# Figure lane (results/README.md): the virtual-time figure binaries are
# pure functions of the code, so what results/ holds must be exactly
# what they print today. A diff here means a scheduling, simulator or
# kernel-cost change moved a figure: rerun the binary, commit its
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
)
rm -rf "$fig_dir"
echo "verify: results/ matches the five deterministic figure binaries"

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
# and row counts). Exit status only: two seconds on a CI host say
# nothing about speed, so no metric is gated here.
(cd benchmark && cargo test -q --offline)
bash benchmark/run.sh --workload observe_record --seed 1 --seconds 2 --trace 0 >/dev/null
echo "verify: benchmark builds, its tests pass, observe_record output checks pass"

echo "verify: OK (offline build + tests green, no registry deps, results/ reproduced, benchmark checks pass)"
