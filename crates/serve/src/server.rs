//! The daemon: acceptor, per-connection readers, and runner threads
//! over a shared [`PoolMux`].
//!
//! ## Threading model
//!
//! * **acceptor** — blocks on `TcpListener::accept`, spawns one reader
//!   per connection and drops the table entries of readers that have
//!   finished. Woken for shutdown by a loopback connect.
//! * **readers** (one per live connection) — decode frames, answer
//!   `stats` inline, push `submit`s through [`Admission`]. A malformed
//!   frame gets an error response and closes *that* connection only; a
//!   disconnect cancels the connection's in-flight jobs via their
//!   [`JobTicket`]s; a connection that sends nothing for
//!   `IDLE_TIMEOUT` with no job of its own queued, running or finished
//!   in that time is closed. A small job (no stall, at most
//!   `INLINE_MAX_PIXEL_ITERATIONS` of work) that finds every lane empty
//!   and a pool slot free runs on the reader itself, which answers
//!   `accepted` and the terminal frame in one write: no runner is woken.
//! * **runners** (`slots` of them) — take jobs in round-robin tenant
//!   order, lease a pool from the shared [`PoolMux`], and run them
//!   like the one-shot CLI would, through the readers' `execute`. A
//!   lease is returned (and its epoch left closed) whatever the job
//!   did — panic unwind included — so a job cannot leak a pool slot.
//!
//! Responses are written under a per-connection mutex, one `write` per
//! batch, so frames from different threads never interleave bytes; the
//! reader holds it from enqueue to the `Accepted` write, so a job's
//! `Accepted` always precedes its terminal frame.

use crate::admission::{Admission, Admitted, Job, JobTicket, ReplySink};
use crate::metrics::ServeMetrics;
use crate::proto::{read_frame, write_frame, FrameIn, JobSpec, Request, Response};
use ezp_core::json::{FromJson, Json};
use ezp_core::kernel::Probe;
use ezp_core::perf::run_kernel_boxed;
use ezp_core::{Registry, RunConfig};
use ezp_monitor::UnifiedReport;
use ezp_perf::PerfProbe;
use ezp_sched::{MuxStats, PoolLease, PoolMux};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a connection may send nothing, with no job of its own
/// queued, running or just finished, before its reader closes it: an
/// abandoned socket costs one thread and two descriptors for this long
/// (twice this after its last job), not forever.
const IDLE_TIMEOUT: Duration = Duration::from_millis(if cfg!(test) { 150 } else { 60_000 });

/// Most `size² × iterations` a reader runs itself instead of queueing
/// (a 64² image for 16 iterations). A computing reader cannot notice
/// its client hanging up, so this bounds how long it is deaf.
const INLINE_MAX_PIXEL_ITERATIONS: u64 = 64 * 64 * 16;

/// Small enough to run on the reader that decoded it: no synthetic
/// stall, and at most [`INLINE_MAX_PIXEL_ITERATIONS`] of work.
fn runs_inline(spec: &JobSpec) -> bool {
    let size = spec.size as u64;
    let work = size.saturating_mul(size).saturating_mul(spec.iterations.into());
    spec.stall_us == 0 && work <= INLINE_MAX_PIXEL_ITERATIONS
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// TCP port (0 = ephemeral, query via [`Server::addr`]).
    pub port: u16,
    /// Worker threads per pool slot.
    pub workers: usize,
    /// Concurrent jobs (pool slots / runner threads).
    pub slots: usize,
    /// Distinct tenants admitted before the table rejects.
    pub max_tenants: usize,
    /// Bounded depth of each tenant's admission queue.
    pub queue_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            workers: 2,
            slots: 2,
            max_tenants: 8,
            queue_cap: 16,
        }
    }
}

/// Final tallies returned by [`Server::shutdown`].
#[derive(Clone, Debug)]
pub struct ServerSummary {
    /// (admitted, rejected, completed, cancelled, failed) job totals.
    pub totals: (u64, u64, u64, u64, u64),
    /// Pool-lease traffic of the shared mux.
    pub mux: MuxStats,
    /// The final per-tenant stats document.
    pub stats: Json,
}

struct Shared {
    admission: Admission,
    metrics: Arc<ServeMetrics>,
    mux: PoolMux,
    /// Built once per daemon, not once per job.
    registry: Registry,
    workers: usize,
    stop: AtomicBool,
    addr: SocketAddr,
    /// Live reader threads, so shutdown can join them; the acceptor
    /// drops the entries of finished readers on every accept. The
    /// paired stream clone lets shutdown unblock a reader that is
    /// mid-`read_frame` on a connection the client kept open.
    readers: Mutex<Vec<(JoinHandle<()>, TcpStream)>>,
}

/// A running daemon. Dropping without [`Server::shutdown`] aborts the
/// accept loop and joins all threads.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    runners: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:port` and starts the acceptor and runner
    /// threads.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(ServeMetrics::new(cfg.max_tenants));
        let slots = cfg.slots.max(1);
        let shared = Arc::new(Shared {
            // the tuning argument is benchmark-only vocabulary, ignored
            admission: Admission::new(Default::default(), Arc::clone(&metrics), cfg.queue_cap),
            metrics,
            mux: PoolMux::new(slots, cfg.workers.max(1)),
            registry: ezp_kernels::registry(),
            workers: cfg.workers.max(1),
            stop: AtomicBool::new(false),
            addr,
            readers: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        let runners = (0..slots)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || runner_loop(shared))
            })
            .collect();
        Ok(Server { shared, acceptor: Some(acceptor), runners })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Live per-tenant stats document.
    pub fn stats(&self) -> Json {
        self.shared.metrics.to_json()
    }

    /// Blocks until a remote [`Request::Shutdown`] stops the daemon,
    /// then joins everything. This is what `easypap serve` does.
    pub fn wait(self) -> ServerSummary {
        while !self.shared.stop.load(Ordering::SeqCst) {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        self.shutdown()
    }

    /// Stops accepting, drains the admission queues, joins every
    /// thread, and reports the final tallies. Also triggered remotely
    /// by [`Request::Shutdown`].
    pub fn shutdown(mut self) -> ServerSummary {
        self.stop_and_join();
        ServerSummary {
            totals: self.shared.metrics.totals(),
            mux: self.shared.mux.stats(),
            stats: self.shared.metrics.to_json(),
        }
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.admission.close();
        // wake the blocking accept with a throwaway connection
        TcpStream::connect(self.shared.addr).ok();
        if let Some(h) = self.acceptor.take() {
            h.join().ok();
        }
        for h in self.runners.drain(..) {
            h.join().ok();
        }
        let readers = std::mem::take(
            &mut *self.shared.readers.lock().unwrap_or_else(|e| e.into_inner()),
        );
        for (h, stream) in readers {
            // a client may keep its connection open indefinitely; yank
            // the socket so the blocked read returns EOF before the join
            stream.shutdown(std::net::Shutdown::Both).ok();
            h.join().ok();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.shared.stop.load(Ordering::SeqCst) {
            self.stop_and_join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let conn = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // small frames, latency-sensitive protocol: defeat Nagle
        conn.set_nodelay(true).ok();
        conn.set_read_timeout(Some(IDLE_TIMEOUT)).ok();
        let Ok(shutdown_handle) = conn.try_clone() else {
            continue;
        };
        let shared2 = Arc::clone(&shared);
        let handle = std::thread::spawn(move || reader_loop(conn, shared2));
        let mut readers = shared.readers.lock().unwrap_or_else(|e| e.into_inner());
        // a finished reader has closed its socket; dropping its entry
        // releases the descriptor of the clone and the thread handle
        readers.retain(|(h, _)| !h.is_finished());
        readers.push((handle, shutdown_handle));
    }
}

/// Write-side of one connection, shared between its reader (errors,
/// stats, admission answers) and the runners (job results).
struct Conn {
    stream: Mutex<TcpStream>,
    /// Cancels this connection's jobs when the client goes away.
    ticket: Arc<JobTicket>,
    /// Terminal (`done`/`failed`) frames written so far. The idle
    /// timeout counts from the reader's last read, not from the last
    /// job's end; a count that moved since the previous timeout tells
    /// the reader the silence was a client waiting on its job.
    terminals: AtomicU64,
}

impl Conn {
    /// Sends `resps` in one `write_all`; on a dead peer, cancels the
    /// connection's jobs instead of erroring (the job already ran —
    /// nobody is left to care). An oversized response (`InvalidData`)
    /// is the daemon's fault, not the peer's: the frame is replaced by
    /// a small error note so the client is not left waiting on a
    /// silently dropped terminal frame, and the connection stays usable.
    fn send(&self, resps: impl IntoIterator<Item = Response>) {
        let mut stream = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        self.write(&mut stream, resps);
    }

    /// [`Conn::send`] on the already locked write half.
    fn write(&self, stream: &mut TcpStream, resps: impl IntoIterator<Item = Response>) {
        let mut bytes = Vec::new();
        for resp in resps {
            // encoding into memory fails only on size, writing nothing
            if let Err(e) = write_frame(&mut bytes, &resp.into()) {
                let note = Response::Error(format!("response dropped: {e}"));
                write_frame(&mut bytes, &note.into()).ok();
            }
        }
        if stream.write_all(&bytes).is_err() {
            self.ticket.cancel();
        }
    }
}

impl ReplySink for Conn {
    fn send(&self, resp: Response) {
        Conn::send(self, [resp]);
        // Before the runner drops the job (and with it the `Arc<Conn>`
        // the reader counts), so a reader that sees the job gone also
        // sees its frame counted.
        self.terminals.fetch_add(1, Ordering::SeqCst);
    }
}

fn reader_loop(stream: TcpStream, shared: Arc<Shared>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(Conn {
        stream: Mutex::new(write_half),
        ticket: JobTicket::new(),
        terminals: AtomicU64::new(0),
    });
    let mut reader = BufReader::new(stream);
    // `conn.terminals` as of the last forgiven timeout
    let mut terminals_seen = 0;
    loop {
        // Wait for the first byte of the next frame. A timeout here
        // falls on a frame boundary, so a connection with work pending
        // loses nothing by waiting again; a timeout inside `read_frame`
        // is a stalled half-frame and costs the connection.
        if let Err(e) = reader.fill_buf() {
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                // every queued or running job holds a clone of `conn`
                // as its reply sink
                if Arc::strong_count(&conn) > 1 {
                    continue;
                }
                // a job that ended inside this period kept the client
                // waiting for most of it: the idle period starts over
                // ORDERING: pairs with the Release decrement of the
                // runner's `Arc` drop read (Relaxed) just above, so the
                // count bumped before that drop is visible here.
                fence(Ordering::Acquire);
                let terminals = conn.terminals.load(Ordering::SeqCst);
                if terminals != terminals_seen {
                    terminals_seen = terminals;
                    continue;
                }
                break;
            }
        }
        match read_frame(&mut reader) {
            Ok(FrameIn::Msg(msg)) => {
                let req = match Request::from_json(&msg) {
                    Ok(r) => r,
                    Err(e) => {
                        conn.send([Response::Error(e.to_string())]);
                        break;
                    }
                };
                match req {
                    Request::Submit(spec) => handle_submit(&shared, &conn, spec),
                    Request::Stats => conn.send([Response::Stats(shared.metrics.to_json())]),
                    Request::Shutdown => {
                        conn.send([Response::ShuttingDown]);
                        shared.stop.store(true, Ordering::SeqCst);
                        shared.admission.close();
                        // wake the acceptor so Server::shutdown joins fast
                        TcpStream::connect(shared.addr).ok();
                        break;
                    }
                }
            }
            Ok(FrameIn::Eof) => break,
            Ok(FrameIn::Malformed(why)) => {
                conn.send([Response::Error(format!("malformed frame: {why}"))]);
                break;
            }
            Err(_) => break,
        }
    }
    // reader gone = client gone (or told to go): any queued or running
    // job of this connection is now pointless
    conn.ticket.cancel();
    // actively close the socket — the shutdown handle stored in
    // `shared.readers` would otherwise hold it open (the client would
    // never see EOF) until daemon shutdown
    reader.get_ref().shutdown(std::net::Shutdown::Both).ok();
}

fn handle_submit(shared: &Arc<Shared>, conn: &Arc<Conn>, spec: JobSpec) {
    let reply: Arc<dyn ReplySink> = Arc::clone(conn) as Arc<dyn ReplySink>;
    // The job is runnable the moment it is enqueued, and a runner may
    // finish it before this thread writes another byte. Holding the
    // connection's writer across enqueue + `accepted` makes that
    // runner's `done` wait its turn, so `accepted` is always the first
    // frame of its job. (`admit` never writes to the reply sink.)
    let mut stream = conn.stream.lock().unwrap_or_else(|e| e.into_inner());
    let inline = |spec: &JobSpec| runs_inline(spec).then(|| shared.mux.try_lease()).flatten();
    let resp = match shared.admission.admit(spec, Arc::clone(&conn.ticket), reply, inline) {
        Ok(Admitted::Queued(job_id, tenant, _slot)) => Response::Accepted { job_id, tenant },
        Ok(Admitted::Inline(job, lease)) => {
            // no other thread writes this job's frames: compute unlocked
            drop(stream);
            let accepted = Response::Accepted { job_id: job.id, tenant: job.tenant.clone() };
            let terminal = execute(shared, job, lease);
            conn.send(std::iter::once(accepted).chain(terminal));
            return;
        }
        Err(rej) => Response::Rejected {
            reason: rej.reason,
            retry_after_ms: rej.retry_after_ms,
        },
    };
    conn.write(&mut stream, [resp]);
}

fn runner_loop(shared: Arc<Shared>) {
    let cursor = AtomicUsize::new(0);
    while let Some(job) = shared.admission.next_job(&cursor) {
        // a client that left while its job was queued costs no slot
        if !job.ticket.is_live() {
            shared.metrics.cancelled(job.tenant_slot);
            continue;
        }
        // leased before any stall, so a stall occupies its slot
        let lease = shared.mux.lease();
        let reply = Arc::clone(&job.reply);
        if let Some(resp) = execute(&shared, job, lease) {
            reply.send(resp);
        }
    }
}

/// Runs `job` on `lease`'s pool, for a runner or for the reader that
/// decoded it, and returns its terminal frame — `None` when the client
/// left while it ran.
fn execute(shared: &Shared, job: Job, mut lease: PoolLease<'_>) -> Option<Response> {
    let slot = job.tenant_slot;
    let queued_ns = ezp_core::time::now_ns().saturating_sub(job.enqueued_ns);
    // synthetic upstream latency of a replayed request: stalls overlap
    // across runner slots, compute does not (on fewer cores than slots)
    if job.spec.stall_us > 0 {
        std::thread::sleep(std::time::Duration::from_micros(job.spec.stall_us));
    }
    let threads = job.spec.threads.clamp(1, shared.workers);
    let cfg = RunConfig::new(&job.spec.kernel)
        .variant(&job.spec.variant)
        .size(job.spec.size)
        .tile(job.spec.tile)
        .iterations(job.spec.iterations)
        .threads(threads);
    let probe = Arc::new(PerfProbe::new(threads));
    let probe_dyn: Arc<dyn Probe> = probe.clone();
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        lease.install(threads, || run_kernel_boxed(&shared.registry, cfg, probe_dyn))
    }));
    drop(lease); // slot back in the mux before any response I/O
    let (run, ctx, kernel) = match result {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(e)) => {
            shared.metrics.failed(slot);
            return Some(Response::Failed { job_id: job.id, error: e.to_string() });
        }
        Err(_) => {
            shared.metrics.failed(slot);
            let error = "kernel panicked".to_string();
            return Some(Response::Failed { job_id: job.id, error });
        }
    };
    if !job.ticket.is_live() {
        // ran to completion for a client that left mid-job; count it as
        // cancelled — the epoch is closed either way
        shared.metrics.cancelled(slot);
        return None;
    }
    shared.metrics.completed(slot, queued_ns);
    let mut snapshot = probe.snapshot();
    for (name, per_worker) in kernel.stats_counters() {
        snapshot.push(&name, per_worker);
    }
    let report = UnifiedReport::new(None, snapshot, probe.span_snapshot())
        .with_tenant(&job.tenant)
        .to_json();
    let digest = format!("{:016x}", digest_pixels(ctx.images.cur().as_slice()));
    Some(Response::Done {
        job_id: job.id,
        tenant: job.tenant,
        elapsed_ns: run.elapsed_ns,
        iterations: run.completed_iterations,
        digest,
        report,
    })
}

/// FNV-1a over the frame's pixel words, little-endian byte order — the
/// digest clients compare across runs and machines.
fn digest_pixels(pixels: &[ezp_core::Rgba]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for px in pixels {
        for b in px.0.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use ezp_core::json::ToJson;
    use ezp_perf::CounterSnapshot;
    use std::io::Read;
    use std::time::Instant;

    /// Reads frames off a raw connection until a job's terminal one.
    fn read_until_done(stream: &mut TcpStream) -> Response {
        loop {
            let FrameIn::Msg(msg) = read_frame(&mut *stream).unwrap() else {
                panic!("connection cut before the job's terminal frame");
            };
            match Response::from_json(&msg).unwrap() {
                Response::Accepted { .. } => {}
                done @ Response::Done { .. } => return done,
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }

    fn job(stall: Duration) -> JobSpec {
        JobSpec {
            kernel: "mandel".into(),
            variant: "seq".into(),
            size: 64,
            tile: 16,
            iterations: 1,
            threads: 1,
            tenant: Some("t".into()),
            stall_us: stall.as_micros() as u64,
        }
    }

    #[test]
    fn a_done_frame_carries_only_the_counters_its_job_moved() {
        // the `serve_jobs` benchmark's spec: mandel seq 64/16 x1, one thread
        let server = Server::start(ServeConfig::default()).unwrap();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        let spec = JobSpec { tenant: Some("t0".into()), ..JobSpec::default() };
        write_frame(&mut client, &Request::Submit(spec).to_json()).unwrap();
        let done = read_until_done(&mut client);
        let mut wire = Vec::new();
        write_frame(&mut wire, &done.to_json()).unwrap();
        // 1 419 bytes when every registered counter rode along
        assert!(wire.len() <= 512, "a {}-byte done frame", wire.len());
        let Response::Done { report, .. } = done else { unreachable!() };
        let counters = CounterSnapshot::from_json(report.get("counters").unwrap()).unwrap();
        assert_eq!(counters.total("tasks_executed"), 1);
        for c in &counters.counters {
            assert!(c.total() > 0, "`{}` read 0 and was sent anyway", c.name);
        }
        assert!(counters.get("steals_attempted").is_none());
        assert_eq!(server.shutdown().totals.2, 1);
    }

    #[test]
    fn the_inline_bound_is_inclusive_and_does_not_overflow() {
        let at = |size, iterations, stall_us| JobSpec {
            size,
            tile: 1,
            iterations,
            stall_us,
            ..JobSpec::default()
        };
        assert_eq!(INLINE_MAX_PIXEL_ITERATIONS, 64 * 64 * 16);
        assert!(runs_inline(&at(64, 16, 0)), "the constant itself");
        assert!(!runs_inline(&at(64, 16, 1)), "any stall queues");
        // 65 537 is prime: only a 1² image reaches the constant + 1
        assert!(!runs_inline(&at(1, 64 * 64 * 16 + 1, 0)), "the constant + 1");
        let largest = at(crate::MAX_JOB_SIZE, crate::MAX_JOB_ITERATIONS, 0);
        assert!(largest.validate().is_ok());
        assert!(!runs_inline(&largest), "MAX_JOB_SIZE² × MAX_JOB_ITERATIONS");
        assert!(!runs_inline(&at(usize::MAX, u32::MAX, 0)), "saturates instead of wrapping");
    }

    fn live_readers(server: &Server) -> usize {
        server.shared.readers.lock().unwrap().len()
    }

    #[test]
    fn reader_table_does_not_grow_with_connections_served() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let addr = server.addr().to_string();
        let mut done = 0;
        for i in 0..300 {
            let mut client = Client::connect(&addr).unwrap();
            if i % 10 == 0 {
                let resp = client.submit(&job(Duration::ZERO)).unwrap();
                assert!(matches!(resp, Response::Done { .. }), "job {i} did not complete");
                done += 1;
            }
        }
        // Every accept reaps, but a reader may still be on its way out
        // when the next connection arrives: keep knocking until only
        // the knock itself (and at most one straggler) is in the table.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            drop(TcpStream::connect(server.addr()).unwrap());
            std::thread::sleep(Duration::from_millis(5));
            if live_readers(&server) <= 2 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{} reader entries left after 300 closed connections",
                live_readers(&server)
            );
        }
        let (admitted, _rejected, completed, cancelled, failed) = server.shutdown().totals;
        assert_eq!(admitted, done);
        assert_eq!(admitted, completed + cancelled + failed);
    }

    #[test]
    fn idle_connections_are_closed_and_busy_ones_are_not() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let mut idle = TcpStream::connect(server.addr()).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // silent for three idle periods, but with a job of its own running
        let mut busy = Client::connect(&server.addr().to_string()).unwrap();
        let resp = busy.submit(&job(3 * IDLE_TIMEOUT)).unwrap();
        assert!(matches!(resp, Response::Done { .. }), "the busy connection was cut");
        // the daemon hung up on the silent one meanwhile
        assert_eq!(idle.read(&mut [0u8; 1]).unwrap(), 0, "idle connection still open");
        assert_eq!(server.shutdown().totals.2, 1);
    }

    #[test]
    fn a_job_finishing_just_before_the_timeout_restarts_the_idle_period() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        // The reader's last read is this frame; the job ends ~30 ms
        // short of the timeout counted from it.
        let sent = Instant::now();
        let stall = IDLE_TIMEOUT * 4 / 5;
        write_frame(&mut client, &Request::Submit(job(stall)).to_json()).unwrap();
        read_until_done(&mut client);
        assert!(sent.elapsed() >= stall);
        // Silence from here on. The timeout fires at IDLE_TIMEOUT: the
        // socket must outlive it ...
        let until_mid_period = (IDLE_TIMEOUT * 3 / 2).saturating_sub(sent.elapsed());
        client.set_read_timeout(Some(until_mid_period.max(Duration::from_millis(1)))).unwrap();
        let err = client.read(&mut [0u8; 1]).expect_err("closed as idle right after its job");
        assert!(matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut), "{err}");
        // ... and go after one further full idle period.
        client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(client.read(&mut [0u8; 1]).unwrap(), 0, "idle connection still open");
        assert!(sent.elapsed() >= 2 * IDLE_TIMEOUT, "closed after {:?}", sent.elapsed());
        let (admitted, _rejected, completed, cancelled, failed) = server.shutdown().totals;
        assert_eq!((admitted, completed), (1, 1));
        assert_eq!(admitted, completed + cancelled + failed);
    }
}
