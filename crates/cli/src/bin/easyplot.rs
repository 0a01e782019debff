//! The `easyplot` command-line entry point.

/// Large blocks (images, a report's records, a decoded trace) on huge
/// pages: `ezp_sched::HugePageAlloc`.
#[global_allocator]
static ALLOC: ezp_sched::HugePageAlloc = ezp_sched::HugePageAlloc;

fn main() {
    easypap_cli::run_main("easyplot", easypap_cli::run_easyplot)
}
