//! The `easypap` command-line entry point.

fn main() {
    easypap_cli::run_main("easypap", easypap_cli::run_easypap)
}
