//! Pass-suppression corpus: the same unpaired-Release shape as
//! `atomics_pairing/bad`, switched off by an `allow(atomics-pairing)`
//! anchored at the field *declaration* — one marker covers every
//! access site. The marker names the pass, so a clean run here also
//! proves pass names validate as known suppressions.

pub struct State {
    // release-only by design: the consumer side lives out-of-process
    // ezp-lint: allow(atomics-pairing)
    flag: AtomicBool,
}

impl State {
    pub fn publish(&self) {
        self.flag.store(true, Ordering::Release);
    }
}
