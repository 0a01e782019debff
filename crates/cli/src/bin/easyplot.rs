//! The `easyplot` command-line entry point.

fn main() {
    easypap_cli::run_main("easyplot", easypap_cli::run_easyplot)
}
