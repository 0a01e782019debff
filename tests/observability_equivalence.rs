//! The observability path, checked against what it replaced.
//!
//! `Monitor::report()` merges per-worker logs and the per-iteration
//! queries binary-search; the references here are the plain versions
//! (concatenate + stable sort, full scan + filter). The golden files
//! under `tests/golden/` pin the bytes a fixed report renders to — they
//! were written by the commit before the one-pass path went in.

use easypap::core::kernel::{MultiProbe, Probe};
use easypap::core::perf::run_kernel;
use easypap::monitor::activity;
use easypap::monitor::report::{IterationSpan, IterationStats};
use easypap::monitor::{DepEdge, TileRecord, TilingSnapshot};
use easypap::perf::{CounterSet, SpanRecord};
use easypap::prelude::*;
use ezp_testkit::prop::any_u64;
use ezp_testkit::{ezp_proptest, Rng};
use std::collections::BTreeSet;
use std::sync::Arc;

fn grid() -> TileGrid {
    TileGrid::square(64, 16).unwrap()
}

/// What `Monitor::report().records` must equal: the lanes concatenated
/// in worker order, then stably sorted by `(iteration, start_ns)`.
fn concat_and_stable_sort(lanes: &[Vec<TileRecord>]) -> Vec<TileRecord> {
    let mut all: Vec<TileRecord> = lanes.iter().flatten().copied().collect();
    all.sort_by_key(|r| (r.iteration, r.start_ns));
    all
}

ezp_proptest! {
    #![cases(48)]

    /// Random multi-worker interleavings driven through the timestamped
    /// hooks: tiny clock steps (many equal keys across workers), one
    /// worker that never records, `end_tile` without `start_tile`,
    /// mid-run snapshots, two reports in a row — and, in half the
    /// cases, iteration numbers that go backwards, which leaves a
    /// worker's own run out of order.
    fn report_equals_concatenated_lanes_stably_sorted(
        workers in 1usize..6,
        steps in 0usize..400,
        seed in any_u64(),
    ) {
        let mut rng = Rng::seed(seed);
        let monitor = Monitor::new(workers, grid());
        let mut lanes: Vec<Vec<TileRecord>> = vec![Vec::new(); workers];
        let mut clock = vec![0u64; workers];
        let silent = (workers > 1).then(|| rng.gen_range(0..workers));
        let may_go_back = rng.gen_bool(0.5);
        let mut iteration = 1u32;
        monitor.iteration_start(iteration);
        for _ in 0..steps {
            match rng.gen_range(0..16u32) {
                0 => {
                    iteration = if may_go_back && iteration > 1 && rng.gen_bool(0.3) {
                        iteration - 1
                    } else {
                        iteration + rng.gen_range(1..4u32) // numbering gaps
                    };
                    monitor.iteration_start(iteration);
                }
                1 => assert_eq!(monitor.report().records, concat_and_stable_sort(&lanes)),
                _ => {
                    let w = rng.gen_range(0..workers);
                    if Some(w) == silent {
                        continue;
                    }
                    clock[w] += rng.gen_range(0..3u64);
                    let start = clock[w];
                    let bracketed = !rng.gen_bool(0.1);
                    if bracketed {
                        monitor.start_tile_at(w, start);
                    }
                    clock[w] += rng.gen_range(0..3u64);
                    let end = clock[w];
                    let (x, y) = (rng.gen_range(0..4usize) * 16, rng.gen_range(0..4usize) * 16);
                    monitor.end_tile_at(x, y, 16, 16, w, end);
                    lanes[w].push(TileRecord {
                        iteration,
                        x,
                        y,
                        w: 16,
                        h: 16,
                        // an end without a start is a zero-length task
                        start_ns: if bracketed { start } else { end },
                        end_ns: end,
                        worker: w,
                    });
                }
            }
        }
        let expected = concat_and_stable_sort(&lanes);
        assert_eq!(monitor.report().records, expected);
        assert_eq!(monitor.report().records, expected, "a report is a snapshot, not a drain");
    }

    /// Sorted records over iteration numbers with gaps, spans without
    /// records, records without a span and an open last span: the
    /// binary-searched queries equal a full scan.
    fn per_iteration_queries_equal_the_full_scan(
        n in 0usize..300,
        workers in 1usize..5,
        seed in any_u64(),
    ) {
        let mut rng = Rng::seed(seed);
        let mut records = Vec::with_capacity(n);
        let (mut iteration, mut start) = (rng.gen_range(0..3u32), 0u64);
        for _ in 0..n {
            if rng.gen_bool(0.1) {
                iteration += rng.gen_range(1..4u32);
            }
            start += rng.gen_range(0..50u64);
            records.push(TileRecord {
                iteration,
                x: rng.gen_range(0..5usize) * 16, // column 4 is off the grid
                y: rng.gen_range(0..4usize) * 16,
                w: 16,
                h: 16,
                start_ns: start,
                end_ns: start + rng.gen_range(0..100u64),
                worker: rng.gen_range(0..workers + 1), // one past: folds into the last slot
            });
        }
        let mut spans: Vec<IterationSpan> = (0..iteration + 3)
            .filter(|_| rng.gen_bool(0.7))
            .map(|it| IterationSpan { iteration: it, start_ns: 0, end_ns: 1000 * (it as u64 + 1) })
            .collect();
        if let Some(last) = spans.last_mut() {
            last.end_ns = u64::MAX; // still open
        }
        let report = MonitorReport::new(workers, grid(), spans.clone(), records.clone());
        let trace = Trace {
            meta: TraceMeta {
                kernel: "k".into(),
                variant: "v".into(),
                dim: 64,
                tile_size: 16,
                threads: workers + 1,
                schedule: "static".into(),
                label: "l".into(),
            },
            iterations: spans.clone(),
            tasks: records.clone(),
            edges: Vec::new(),
            counters: None,
        };
        let scan = |it: u32| -> Vec<TileRecord> {
            records.iter().filter(|r| r.iteration == it).copied().collect()
        };
        let stats_by_scan = |span: &IterationSpan| {
            let mut busy_ns = vec![0u64; workers];
            let mut tiles = vec![0usize; workers];
            for r in scan(span.iteration) {
                let w = r.worker.min(workers - 1);
                busy_ns[w] += r.duration_ns();
                tiles[w] += 1;
            }
            IterationStats { span: *span, busy_ns, tiles }
        };
        for it in 0..iteration + 4 {
            assert_eq!(report.records_of_iteration(it).copied().collect::<Vec<_>>(), scan(it));
            assert_eq!(trace.tasks_of_iteration(it).copied().collect::<Vec<_>>(), scan(it));
            let span = spans.iter().find(|s| s.iteration == it);
            assert_eq!(report.iteration_stats(it), span.map(stats_by_scan));
            let by_scan = TilingSnapshot::from_records(&grid(), scan(it).iter());
            assert_eq!(report.tiling_snapshot(it), by_scan);
        }
        let all: Vec<IterationStats> = spans.iter().map(stats_by_scan).collect();
        assert_eq!(report.all_stats(), all);
    }

    /// A report handed records that are not grouped by iteration still
    /// answers every per-iteration query like a full scan would.
    fn unsorted_records_still_query_like_a_scan(n in 0usize..100, seed in any_u64()) {
        let mut rng = Rng::seed(seed);
        let records: Vec<TileRecord> = (0..n as u64)
            .map(|i| TileRecord {
                iteration: rng.gen_range(1..5u32),
                x: 0,
                y: 0,
                w: 16,
                h: 16,
                start_ns: i,
                end_ns: i + 1,
                worker: 0,
            })
            .collect();
        let report = MonitorReport::new(1, grid(), Vec::new(), records.clone());
        for it in 0..6 {
            let scan: Vec<TileRecord> =
                records.iter().filter(|r| r.iteration == it).copied().collect();
            assert_eq!(report.records_of_iteration(it).copied().collect::<Vec<_>>(), scan);
        }
    }
}

/// Three iterations of blur over `grid()` with `probe` installed.
fn run_blur(threads: usize, probe: Arc<dyn Probe>) {
    let cfg = RunConfig::new("blur")
        .variant("omp_tiled")
        .size(64)
        .tile(16)
        .iterations(3)
        .threads(threads)
        .schedule(Schedule::Static); // tile -> worker is then a function of the grid
    run_kernel(&easypap::kernels::registry(), cfg, probe).unwrap();
}

#[test]
fn stacked_probes_record_what_each_probe_records_alone() {
    let threads = 2;
    let tiles = |report: &MonitorReport| {
        let mut v: Vec<_> = report
            .records
            .iter()
            .map(|r| (r.x, r.y, r.w, r.h, r.worker, r.iteration))
            .collect();
        v.sort_unstable();
        v
    };
    let tasks = |perf: &PerfProbe| perf.snapshot().total("tasks_executed");

    let alone_monitor = Arc::new(Monitor::new(threads, grid()));
    run_blur(threads, alone_monitor.clone());
    let alone_perf = Arc::new(PerfProbe::new(threads));
    run_blur(threads, alone_perf.clone());

    let monitor = Arc::new(Monitor::new(threads, grid()));
    let perf = Arc::new(PerfProbe::new(threads));
    run_blur(
        threads,
        Arc::new(MultiProbe::new(vec![monitor.clone(), perf.clone()])),
    );

    let (alone, stacked) = (alone_monitor.report(), monitor.report());
    assert_eq!(tiles(&stacked), tiles(&alone));
    assert_eq!(stacked.records.len(), 3 * grid().len());
    assert!(stacked
        .records
        .iter()
        .all(|r| r.worker < threads && r.end_ns >= r.start_ns));
    assert_eq!(tasks(&perf), tasks(&alone_perf));
    assert_eq!(tasks(&perf), stacked.records.len() as u64);
}

/// A hand-built two-worker, three-iteration report (iteration numbers
/// with a gap, an idle worker in iteration 4, a repeated tile).
fn golden_report() -> MonitorReport {
    let grid = TileGrid::square(64, 16).unwrap();
    let mut records = Vec::new();
    let mut spans = Vec::new();
    for (n, it) in [1u32, 2, 4].into_iter().enumerate() {
        let base = 1_000_000 * n as u64;
        spans.push(IterationSpan {
            iteration: it,
            start_ns: base,
            end_ns: base + 900_000,
        });
        for (i, tile) in grid.iter().enumerate() {
            let worker = if it == 4 { 0 } else { i % 2 };
            let start = base + 50_000 * (i as u64 / 2) + 7 * worker as u64;
            let cost = 20_000 + 1_500 * ((i as u64 * 7 + it as u64) % 11);
            records.push(TileRecord {
                iteration: it,
                x: tile.x,
                y: tile.y,
                w: tile.w,
                h: tile.h,
                start_ns: start,
                end_ns: start + cost,
                worker,
            });
        }
    }
    // the second phase of a two-phase kernel touches tile 0 again
    records.push(TileRecord {
        start_ns: 2_850_000,
        end_ns: 2_860_000,
        ..records[32]
    });
    records.sort_by_key(|r| (r.iteration, r.start_ns));
    MonitorReport::new(2, grid, spans, records).with_edges(vec![
        DepEdge {
            from: 0,
            to: 1,
            kind: 0,
        },
        DepEdge {
            from: 0,
            to: 4,
            kind: 0,
        },
        DepEdge {
            from: 1,
            to: 5,
            kind: 2,
        },
    ])
}

fn golden_counters() -> easypap::perf::CounterSnapshot {
    let mut set = CounterSet::new(2);
    let tasks = set.register("tasks_executed");
    set.add(tasks, 0, 33);
    set.add(tasks, 1, 16);
    let idle = set.register("idle_ns");
    set.add(idle, 1, 123_456);
    set.snapshot()
}

/// Compares `got` with `tests/golden/<name>`; `EZP_BLESS=1` rewrites the
/// file first, for a deliberate format change.
fn check_golden(name: &str, got: &[u8]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("EZP_BLESS").is_some() {
        std::fs::write(&path, got).unwrap();
    }
    let want = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(want == got, "{name} differs from {}", path.display());
}

#[test]
fn fixed_report_renders_byte_identical_to_the_goldens() {
    let report = golden_report();
    let meta = TraceMeta {
        kernel: "blur".into(),
        variant: "omp_tiled".into(),
        dim: 64,
        tile_size: 16,
        threads: 2,
        schedule: "dynamic,2".into(),
        label: "blur/omp_tiled".into(),
    };

    // the .ezv bytes, by copy and by move, and back
    let trace = Trace::from_report(meta.clone(), &report).with_counters(golden_counters());
    let bytes = easypap::trace::io::to_bytes(&trace).unwrap();
    check_golden("observe_ezv.bin", &bytes);
    let moved = Trace::from_owned_report(meta, report.clone()).with_counters(golden_counters());
    assert_eq!(moved, trace);
    let back = moved.into_report().unwrap();
    assert_eq!(back.records, report.records);
    assert_eq!(back.edges, report.edges);
    assert_eq!(trace.to_report().unwrap().records, report.records);

    // the monitoring windows, as `easypap --monitoring` prints them
    let mut windows = activity::render_report(&report);
    for it in [1, 4] {
        windows.push_str(&report.tiling_snapshot(it).to_ascii());
        windows.push_str(&report.heat_map(it).to_ascii());
    }
    check_golden("observe_windows.txt", windows.as_bytes());

    // the --stats=json document and the text form
    let spans = vec![
        SpanRecord {
            name: "iteration",
            worker: 0,
            start_ns: 0,
            end_ns: 900_000,
        },
        SpanRecord {
            name: "idle:barrier",
            worker: 1,
            start_ns: 700_000,
            end_ns: 900_000,
        },
    ];
    let unified = UnifiedReport::new(Some(report), golden_counters(), spans);
    check_golden("observe_stats.json", unified.to_json().dump().as_bytes());
    check_golden("observe_stats.txt", unified.to_text().as_bytes());

    // easyview explain over the same trace
    let explained = easypap::view::explain(&trace).unwrap().render();
    check_golden("observe_explain.txt", explained.as_bytes());
}

/// Counter names documented in `docs/observability.md`: the backticked
/// spans in the first cell of every row of a table headed `counter`
/// (`` `a` / `b` `` and `` `a`, `b` `` are two names each). The per-rank
/// MPI table is headed differently and stays unread: its values are
/// reported by kernels, not registered on a `CounterSet`.
fn documented_counters(docs: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut in_table = false;
    for line in docs.lines() {
        let Some(first) = line.trim().strip_prefix('|').and_then(|l| l.split('|').next()) else {
            in_table = false;
            continue;
        };
        if in_table {
            names.extend(first.split('`').skip(1).step_by(2).map(str::to_string));
        } else {
            in_table = first.trim() == "counter";
        }
    }
    names
}

/// `(registered but undocumented, documented but not registered)`.
fn counter_drift(registered: &BTreeSet<String>, docs: &str) -> (Vec<String>, Vec<String>) {
    let documented = documented_counters(docs);
    (
        registered.difference(&documented).cloned().collect(),
        documented.difference(registered).cloned().collect(),
    )
}

/// The counters that run — every name in a fresh `PerfProbe` and
/// `ServeMetrics` snapshot, the only `CounterSet` owners that ship —
/// are exactly the *Counter reference* rows of `docs/observability.md`.
#[test]
fn registered_counters_and_the_docs_table_agree_both_ways() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/observability.md");
    let docs = std::fs::read_to_string(&path).unwrap();
    let registered: BTreeSet<String> = PerfProbe::new(1)
        .snapshot()
        .counters
        .into_iter()
        .chain(ezp_serve::ServeMetrics::new(1).snapshot().counters)
        .map(|c| c.name)
        .collect();
    let (undocumented, stale) = counter_drift(&registered, &docs);
    assert!(undocumented.is_empty(), "registered, no docs row: {undocumented:?}");
    assert!(stale.is_empty(), "docs row, never registered: {stale:?}");
    assert!(!documented_counters(&docs).contains("mpi_msgs_sent"));

    // the comparison has teeth in both directions
    let mut grown = registered.clone();
    grown.insert("orphan_counter".into());
    assert_eq!(counter_drift(&grown, &docs).0, ["orphan_counter"]);
    let stale_docs = docs.replace("| `barrier_waits` |", "| `barrier_waits`, `stale_counter` |");
    assert_eq!(counter_drift(&registered, &stale_docs).1, ["stale_counter"]);
}
