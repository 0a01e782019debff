//! The [`ChanBackend`](self) trait layer: channel endpoints as shared
//! (`&self`) trait objects over either the lock-free ring or a
//! `std::sync::mpsc` baseline.
//!
//! The `chan.mpmc2_ns_msg` / `chan.mpsc_backend_ns_msg` per-layer
//! metrics of `benchmark/` time the same fan-in on both backends — the
//! reason the baseline is kept.
//!
//! Capacity semantics: for `bounded(…, producers, cap)` both backends
//! guarantee *at least* `producers × cap` buffered items in aggregate —
//! the ring gives each producer its own `cap`-deep lane, the mpsc
//! baseline one shared buffer of `producers × cap`. A stalled ring
//! endpoint yields; `std::sync::mpsc` blocks natively.

use crate::errors::{RecvError, SendError, TryRecvError, TrySendError};
use crate::mpmc::{mpmc, MpmcReceiver, MpmcSender};
use crate::stats::{ChanCounters, ChanStats};
use ezp_core::time::now_ns;
use ezp_core::{ChanBackendKind, ChanTuning};
use std::sync::{mpsc, Arc, Mutex};

/// The sending side of a backend-agnostic channel. `&self` methods so
/// endpoints work as shared trait objects across scoped threads.
pub trait ChanSender<T: Send>: Send + Sync {
    /// Send one item, waiting (bounded channels) while full. Fails only
    /// when every receiver is gone; the item is handed back.
    fn send(&self, value: T) -> Result<(), SendError<T>>;
    /// Send one item without waiting.
    fn try_send(&self, value: T) -> Result<(), TrySendError<T>>;
    /// Snapshot of the channel's activity counters.
    fn stats(&self) -> ChanStats;
}

/// The receiving side of a backend-agnostic channel.
pub trait ChanReceiver<T: Send>: Send + Sync {
    /// Receive one item, waiting while empty. Fails only when the
    /// channel is drained and every sender is gone.
    fn recv(&self) -> Result<T, RecvError>;
    /// Receive one item without waiting.
    fn try_recv(&self) -> Result<T, TryRecvError>;
    /// Snapshot of the channel's activity counters.
    fn stats(&self) -> ChanStats;
}

/// A bounded channel with `producers` sending endpoints and aggregate
/// capacity of at least `producers × cap` (see module docs). The
/// endpoints borrow nothing, but the payload type may (`T: Send + 'a`),
/// so e.g. the streaming engine can move borrowed frame payloads
/// through a channel scoped to one run.
pub fn bounded<'a, T: Send + 'a>(
    tuning: ChanTuning,
    producers: usize,
    cap: usize,
) -> (Vec<Sender<'a, T>>, Box<dyn ChanReceiver<T> + 'a>) {
    let producers = producers.max(1);
    let cap = cap.max(1);
    match tuning.backend {
        ChanBackendKind::Ring => {
            let (txs, rx) = mpmc(producers, cap, tuning.policy);
            (boxed_senders(txs), Box::new(rx))
        }
        ChanBackendKind::Mpsc => {
            let (tx, rx) = mpsc::sync_channel(producers * cap);
            let stats = Arc::new(ChanCounters::default());
            let senders = (0..producers)
                .map(|_| {
                    Box::new(MpscTx {
                        tx: Mutex::new(tx.clone()),
                        stats: Arc::clone(&stats),
                    }) as Sender<'a, T>
                })
                .collect();
            drop(tx);
            (
                senders,
                Box::new(MpscRx {
                    rx: Mutex::new(rx),
                    stats,
                }),
            )
        }
    }
}

/// One producer's endpoint of a [`bounded`] channel.
type Sender<'a, T> = Box<dyn ChanSender<T> + 'a>;

fn boxed_senders<'a, T: Send + 'a>(txs: Vec<MpmcSender<T>>) -> Vec<Sender<'a, T>> {
    txs.into_iter()
        .map(|t| Box::new(t) as Sender<'a, T>)
        .collect()
}

impl<T: Send> ChanSender<T> for MpmcSender<T> {
    fn send(&self, value: T) -> Result<(), SendError<T>> {
        MpmcSender::send(self, value)
    }
    fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        MpmcSender::try_send(self, value)
    }
    fn stats(&self) -> ChanStats {
        MpmcSender::stats(self)
    }
}

impl<T: Send> ChanReceiver<T> for MpmcReceiver<T> {
    fn recv(&self) -> Result<T, RecvError> {
        MpmcReceiver::recv(self)
    }
    fn try_recv(&self) -> Result<T, TryRecvError> {
        MpmcReceiver::try_recv(self)
    }
    fn stats(&self) -> ChanStats {
        MpmcReceiver::stats(self)
    }
}

/// The `std::sync::mpsc` baseline sender. The handle lives behind a
/// mutex rather than relying on toolchain-dependent `Sync` impls for
/// `Sender` — each trait endpoint owns its own handle (one per
/// producer), so the lock is uncontended unless one endpoint is shared
/// across threads.
struct MpscTx<T> {
    tx: Mutex<mpsc::SyncSender<T>>,
    stats: Arc<ChanCounters>,
}

struct MpscRx<T> {
    rx: Mutex<mpsc::Receiver<T>>,
    stats: Arc<ChanCounters>,
}

impl<T: Send> ChanSender<T> for MpscTx<T> {
    fn send(&self, value: T) -> Result<(), SendError<T>> {
        let tx = self.tx.lock().expect("mpsc sender lock poisoned");
        match tx.try_send(value) {
            Ok(()) => {
                ChanCounters::bump(&self.stats.sends);
                Ok(())
            }
            Err(mpsc::TrySendError::Disconnected(v)) => Err(SendError(v)),
            Err(mpsc::TrySendError::Full(v)) => {
                ChanCounters::bump(&self.stats.full_stalls);
                let t0 = now_ns();
                let res = tx.send(v).map_err(|e| SendError(e.0));
                self.stats.add_stall_ns(now_ns().saturating_sub(t0));
                if res.is_ok() {
                    ChanCounters::bump(&self.stats.sends);
                }
                res
            }
        }
    }

    fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let tx = self.tx.lock().expect("mpsc sender lock poisoned");
        match tx.try_send(value) {
            Ok(()) => {
                ChanCounters::bump(&self.stats.sends);
                Ok(())
            }
            Err(mpsc::TrySendError::Full(v)) => Err(TrySendError::Full(v)),
            Err(mpsc::TrySendError::Disconnected(v)) => Err(TrySendError::Closed(v)),
        }
    }

    fn stats(&self) -> ChanStats {
        self.stats.snapshot()
    }
}

impl<T: Send> ChanReceiver<T> for MpscRx<T> {
    fn recv(&self) -> Result<T, RecvError> {
        let rx = self.rx.lock().expect("mpsc receiver lock poisoned");
        match rx.try_recv() {
            Ok(v) => {
                ChanCounters::bump(&self.stats.recvs);
                Ok(v)
            }
            Err(mpsc::TryRecvError::Disconnected) => Err(RecvError),
            Err(mpsc::TryRecvError::Empty) => {
                ChanCounters::bump(&self.stats.empty_stalls);
                let t0 = now_ns();
                let res = rx.recv().map_err(|_| RecvError);
                self.stats.add_stall_ns(now_ns().saturating_sub(t0));
                if res.is_ok() {
                    ChanCounters::bump(&self.stats.recvs);
                }
                res
            }
        }
    }

    fn try_recv(&self) -> Result<T, TryRecvError> {
        let rx = self.rx.lock().expect("mpsc receiver lock poisoned");
        match rx.try_recv() {
            Ok(v) => {
                ChanCounters::bump(&self.stats.recvs);
                Ok(v)
            }
            Err(mpsc::TryRecvError::Empty) => Err(TryRecvError::Empty),
            Err(mpsc::TryRecvError::Disconnected) => Err(TryRecvError::Closed),
        }
    }

    fn stats(&self) -> ChanStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::WaitPolicy;

    fn tunings() -> [ChanTuning; 2] {
        [ChanBackendKind::Ring, ChanBackendKind::Mpsc].map(|backend| ChanTuning {
            backend,
            policy: WaitPolicy::Yield,
        })
    }

    #[test]
    fn both_backends_deliver_everything_in_per_producer_order() {
        for tuning in tunings() {
            let (txs, rx) = bounded::<(usize, usize)>(tuning, 2, 4);
            std::thread::scope(|s| {
                for (p, tx) in txs.into_iter().enumerate() {
                    s.spawn(move || {
                        for i in 0..200 {
                            tx.send((p, i)).unwrap();
                        }
                    });
                }
                let mut next = [0usize; 2];
                for _ in 0..400 {
                    let (p, seq) = rx.recv().unwrap();
                    assert_eq!(seq, next[p], "{tuning:?}: producer {p} order");
                    next[p] += 1;
                }
                assert!(rx.recv().is_err(), "{tuning:?}: closed after drain");
            });
        }
    }

    #[test]
    fn stats_flow_through_the_trait_objects() {
        for tuning in tunings() {
            let (txs, rx) = bounded::<u8>(tuning, 1, 2);
            txs[0].send(1).unwrap();
            txs[0].send(2).unwrap();
            rx.recv().unwrap();
            let st = rx.stats();
            assert_eq!((st.sends, st.recvs), (2, 1), "{tuning:?}");
        }
    }
}
