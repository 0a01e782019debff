//! How an endpoint waits for "not full" / "not empty": it yields and
//! re-polls ([`WaitPolicy::Yield`](ezp_core::WaitPolicy), the only
//! policy). Nothing is ever parked, so the operations that end a wait
//! have nobody to wake.

use ezp_core::time::now_ns;

/// One stall episode: yield until `ready()`. Returns the episode's
/// wall time in ns.
pub(crate) fn stall_until(ready: impl Fn() -> bool) -> u64 {
    let t0 = now_ns();
    while !ready() {
        std::thread::yield_now();
    }
    now_ns().saturating_sub(t0)
}
