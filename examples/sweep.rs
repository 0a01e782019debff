//! Experiment automation (paper §II-C, Fig. 5 + Fig. 6 pipeline).
//!
//! The Rust spelling of the paper's `expTools` script: sweep the
//! Mandelbrot kernel over grains {16, 32}, threads {1, 2, 4} and two
//! schedules with repeated runs, accumulate everything into a CSV, then
//! feed it to the easyplot pipeline (constant-parameter factoring, auto
//! legend, speedup transform) and print the chart.
//!
//! Run with: `cargo run --release --example sweep`

use easypap::exp::Sweep;
use easypap::plot::{render_ascii, Dataset};

fn main() -> easypap::core::Result<()> {
    let csv = std::env::temp_dir().join("easypap-sweep-example.csv");
    std::fs::remove_file(&csv).ok();

    // easypap_options["--kernel "] = ["mandel"] ... (Fig. 5)
    let sweep = Sweep::new()
        .fixed("--kernel", "mandel")
        .fixed("--variant", "omp_tiled")
        .fixed("--size", 256)
        .fixed("--iterations", 2)
        .set("--grain", [16, 32])
        .set("--threads", [1, 2, 4])
        .set("--schedule", ["static", "dynamic,2"])
        .runs(3);
    println!(
        "running {} configurations x {} runs...",
        sweep.combinations(),
        3
    );
    let outcomes = sweep.execute(&easypap::kernels::registry(), &csv)?;
    println!("{} runs recorded in {}", outcomes.len(), csv.display());

    // the easyplot half: one graph per grain, like Fig. 6's two panels
    let table = Sweep::load_results(&csv)?;
    for grain in ["16", "32"] {
        let filtered = table.filter(|r| r.get("tile") == Some(grain));
        let data = Dataset::from_table(&filtered, "threads", "time_us", &["run"])?;
        // refTime: the mean 1-thread time of this panel
        let ref_time = {
            let ones = filtered.filter(|r| r.get("threads") == Some("1"));
            let times: Vec<f64> = (0..ones.len())
                .filter_map(|i| ones.row(i).get_as::<f64>("time_us"))
                .collect();
            times.iter().sum::<f64>() / times.len() as f64
        };
        println!("\n== speedup, grain = {grain} ==");
        print!("{}", render_ascii(&data.into_speedup(ref_time), 60, 14));
    }
    std::fs::remove_file(&csv)?;
    Ok(())
}
