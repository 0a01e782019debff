#!/usr/bin/env bash
# Tier-1 verification: hermetic build + tests, entirely offline.
#
# Lanes, in order: resolved-graph, [lints], dead-manifest-edge and
# production-graph guards, ezp-lint, workspace build + tests (the
# ezp-chan explorer rerun by name), results/ regenerated and diffed,
# ezp-check + conformance matrix, the serve smoke lane, the frozen
# benchmark's own tests and one short run. Hostile and retired command
# lines are not lanes here: they are cases of the table-driven tests in
# crates/cli (docs/testing.md), and so are the --stats, --explain and
# --stream runs (`stats_json_reports_nonzero_task_counts`,
# `explain_flag_appends_causal_profile`,
# `stream_mode_runs_a_demo_and_reports_counters`). No lane gates speed:
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

# --workspace matters: the root package alone does not pull in the
# easypap-cli binary the smoke test below runs.
cargo build --release --offline --workspace
cargo test -q --offline --workspace
# The channel's schedule explorer (docs/channels.md): real
# try_send/try_recv under every interleaving strategy family. Part of
# the workspace run above; named here so it shows in this log even if
# someone trims that lane, like the conformance smoke below.
cargo test -q --offline -p ezp-chan --test explore

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
# Conformance smoke at 2 workers, named explicitly so a matrix-wide
# regression is visible in this log even if someone trims the lanes
# above.
cargo test -q --offline -p easypap --features ezp-check \
    --test conformance -- conformance_smoke_two_workers

# Serve lane (docs/serving.md): one persistent daemon, a good job via
# the submit client, an over-quota rejection with a retry-after hint,
# per-tenant counters in the stats JSON, and a clean remote stop.
serve_dir="$(mktemp -d)"
(
    cd "$serve_dir"
    port=39473
    "$OLDPWD/target/release/easypap" serve --port "$port" --workers 1 \
        --slots 1 --queue-cap 1 --max-tenants 4 \
        > serve_summary.out 2> serve.log &
    serve_pid=$!
    up=0
    for _ in $(seq 1 100); do
        if "$OLDPWD/target/release/easypap" submit --port "$port" \
            --server-stats > /dev/null 2>&1; then up=1; break; fi
        sleep 0.1
    done
    if [ "$up" != 1 ]; then
        echo "error: easypap serve never came up" >&2
        cat serve.log >&2
        exit 1
    fi

    "$OLDPWD/target/release/easypap" submit --port "$port" --kernel mandel \
        --variant seq -s 64 -i 2 --tenant ci > submit.out
    grep -q "(tenant ci) done: 2 iteration(s)" submit.out
    grep -qE "digest [0-9a-f]{16}" submit.out

    # over-quota: two stalled jobs occupy the single runner slot and the
    # 1-deep admission lane; the third must bounce with a retry hint
    "$OLDPWD/target/release/easypap" submit --port "$port" --kernel mandel \
        --variant seq -s 64 --tenant ci --stall-us 500000 > bg1.out &
    bg1=$!
    sleep 0.2
    "$OLDPWD/target/release/easypap" submit --port "$port" --kernel mandel \
        --variant seq -s 64 --tenant ci --stall-us 500000 > bg2.out &
    bg2=$!
    sleep 0.2
    if "$OLDPWD/target/release/easypap" submit --port "$port" --kernel mandel \
        --variant seq -s 64 --tenant ci 2> reject.err; then
        echo "error: over-quota submit was not rejected" >&2
        exit 1
    fi
    grep -q "rejected" reject.err
    grep -q "retry after" reject.err
    wait "$bg1" "$bg2"

    "$OLDPWD/target/release/easypap" submit --port "$port" --server-stats \
        > stats.json
    if command -v python3 >/dev/null 2>&1; then
        python3 - stats.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
row = next(t for t in doc["tenants"] if t["tenant"] == "ci")
assert row["jobs_admitted"] == 3, row
assert row["jobs_completed"] == 3, row
assert row["jobs_rejected"] >= 1, row
assert row["tenant_queue_depth"] >= 1, row
assert "tenant_idle_ns" in row, row
print(f"verify: serve per-tenant counters OK ({row['jobs_admitted']} admitted, "
      f"{row['jobs_rejected']} rejected for tenant ci)")
EOF
    else
        for key in jobs_admitted jobs_rejected jobs_completed \
                   tenant_queue_depth tenant_idle_ns; do
            grep -q "\"$key\"" stats.json
        done
        echo "verify: serve per-tenant counters OK (grep fallback)"
    fi

    "$OLDPWD/target/release/easypap" submit --port "$port" --stop > stop.out
    grep -q "acknowledged shutdown" stop.out
    wait "$serve_pid"
    grep -q "served 3 job(s) (3 completed, 0 cancelled, 0 failed), 1 rejected" \
        serve_summary.out
    echo "verify: serve smoke OK (job + rejection + stats + remote stop)"
)
rm -rf "$serve_dir"

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

echo "verify: OK (offline build + tests green, no registry deps, results/ reproduced, serve smoke lane passes)"
