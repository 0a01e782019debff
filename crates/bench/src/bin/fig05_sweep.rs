//! Fig. 5 — the experiments-automation script, executed for real.
//!
//! The paper's `expTools` script sweeps mandel `omp_tiled` over grains
//! {16, 32}, `OMP_NUM_THREADS` in 2..12 step 2 and four schedules, 10
//! runs each. This binary executes the same sweep (scaled down to stay
//! laptop-friendly: dim 256, 2 iterations, 3 runs — override via env
//! `EZP_FULL=1` for the paper-size version) and leaves `fig05.csv`
//! behind for `easyplot`.

use ezp_bench::banner;
use ezp_exp::Sweep;

fn main() {
    banner("Fig. 5", "expTools sweep -> CSV");
    let full = std::env::var("EZP_FULL").is_ok();
    let (dim, iterations, runs) = if full { (1024, 10, 10) } else { (256, 2, 3) };
    let threads: Vec<String> = (2..=12).step_by(2).map(|t| t.to_string()).collect();

    let sweep = Sweep::new()
        .fixed("--kernel", "mandel")
        .fixed("--variant", "omp_tiled")
        .fixed("--size", dim)
        .fixed("--iterations", iterations)
        .set("--grain", [16, 32])
        .set("--threads", threads)
        .set(
            "--schedule",
            ["static", "guided", "dynamic,2", "nonmonotonic:dynamic"],
        )
        .runs(runs);
    println!(
        "sweep: {} configurations x {runs} runs (dim {dim}, {iterations} iterations){}",
        sweep.combinations(),
        if full { " [FULL]" } else { " [scaled; EZP_FULL=1 for paper size]" }
    );
    let csv = "fig05.csv";
    std::fs::remove_file(csv).ok();
    let outcomes = sweep.execute(&ezp_kernels::registry(), csv).unwrap();
    let total_ms: u64 = outcomes.iter().map(|o| o.elapsed_ns / 1_000_000).sum();
    println!(
        "{} runs completed in {total_ms} ms total -> {csv}",
        outcomes.len()
    );
    println!("\nplot it:  easyplot --input {csv} --kernel mandel --speedup");
}
