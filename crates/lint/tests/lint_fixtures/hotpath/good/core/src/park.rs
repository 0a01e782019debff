//! Fixture: `crates/core/src/park.rs` is the sanctioned blocking
//! fallback — it sits outside the `sched` directory the rule scopes on,
//! so the locks the hot-path files park through live here.

use std::sync::{Condvar, Mutex};

pub struct ParkLot {
    gate: Mutex<bool>,
    bell: Condvar,
}
