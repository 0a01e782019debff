//! The `easyview` command-line entry point.

fn main() {
    easypap_cli::run_main("easyview", easypap_cli::run_easyview)
}
