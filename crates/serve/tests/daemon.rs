//! Daemon-level battery: the full TCP loop under well-formed jobs,
//! malformed frames, mid-job disconnects, backpressure, and remote
//! shutdown. The recurring assertion shape is "the abuse poisons one
//! connection at most, and afterwards the daemon still serves a good
//! job and `shutdown` joins every thread" — a leaked pool epoch or
//! runner would hang that join, so a passing test doubles as the
//! no-leak check.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;

use ezp_core::json::{FromJson, ToJson};
use ezp_serve::proto::{read_frame, write_frame, FrameIn, MAX_FRAME};
use ezp_serve::{Client, JobSpec, Request, Response, ServeConfig, Server};

fn small_job(tenant: &str) -> JobSpec {
    JobSpec {
        kernel: "mandel".into(),
        variant: "seq".into(),
        size: 64,
        tile: 16,
        iterations: 1,
        threads: 1,
        tenant: Some(tenant.into()),
        stall_us: 0,
    }
}

fn assert_served_ok(addr: &str, tenant: &str) -> String {
    let mut client = Client::connect(addr).expect("connect");
    match client.submit(&small_job(tenant)).expect("submit") {
        Response::Done { digest, tenant: t, iterations, .. } => {
            assert_eq!(t, tenant);
            assert_eq!(iterations, 1);
            assert_eq!(digest.len(), 16, "16 hex chars: {digest}");
            digest
        }
        other => panic!("expected done, got {}", other.to_json().dump()),
    }
}

#[test]
fn submit_round_trip_is_deterministic_and_reports_tenant() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let d1 = assert_served_ok(&addr, "acme");
    let d2 = assert_served_ok(&addr, "acme");
    assert_eq!(d1, d2, "same spec, same digest");

    // the report rides along and is tagged with the tenant
    let mut client = Client::connect(&addr).unwrap();
    let Response::Done { report, .. } = client.submit(&small_job("acme")).unwrap() else {
        panic!("expected done");
    };
    assert_eq!(report.field::<String>("tenant").unwrap(), "acme");
    assert!(report.get("counters").is_some(), "unified report payload");

    let summary = server.shutdown();
    let (admitted, _rej, completed, cancelled, failed) = summary.totals;
    assert_eq!(admitted, 3);
    assert_eq!((completed, cancelled, failed), (3, 0, 0));
}

#[test]
fn malformed_frames_poison_only_their_connection() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();

    // (a) lying oversized length prefix
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(&((MAX_FRAME as u32 + 1).to_le_bytes())).unwrap();
        s.flush().unwrap();
        let mut reader = BufReader::new(s.try_clone().unwrap());
        match read_frame(&mut reader).unwrap() {
            FrameIn::Msg(v) => {
                let resp = Response::from_json(&v).unwrap();
                let Response::Error(msg) = resp else {
                    panic!("expected error response")
                };
                assert!(msg.contains("malformed"), "got: {msg}");
            }
            other => panic!("expected error frame, got {other:?}"),
        }
        // server hangs up after the error
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
    }

    // (b) truncated JSON body: prefix promises 32 bytes, send 7, close
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(&32u32.to_le_bytes()).unwrap();
        s.write_all(b"{\"type\"").unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reader = BufReader::new(s);
        let FrameIn::Msg(v) = read_frame(&mut reader).unwrap() else {
            panic!("expected error frame")
        };
        assert!(matches!(Response::from_json(&v).unwrap(), Response::Error(_)));
    }

    // (c) zero-length frame
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(&0u32.to_le_bytes()).unwrap();
        s.flush().unwrap();
        let mut reader = BufReader::new(s.try_clone().unwrap());
        let FrameIn::Msg(v) = read_frame(&mut reader).unwrap() else {
            panic!("expected error frame")
        };
        assert!(matches!(Response::from_json(&v).unwrap(), Response::Error(_)));
    }

    // (d) valid frame, not a request object
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        write_frame(&mut s, &ezp_core::json::Json::Bool(true)).unwrap();
        let mut reader = BufReader::new(s.try_clone().unwrap());
        let FrameIn::Msg(v) = read_frame(&mut reader).unwrap() else {
            panic!("expected error frame")
        };
        assert!(matches!(Response::from_json(&v).unwrap(), Response::Error(_)));
    }

    // the daemon is unimpressed: a fresh connection still computes
    assert_served_ok(&addr, "survivor");
    let summary = server.shutdown();
    assert_eq!(summary.totals.2, 1, "one completed job");
}

#[test]
fn mid_job_disconnect_cancels_without_wedging_the_daemon() {
    let cfg = ServeConfig { workers: 1, slots: 1, ..ServeConfig::default() };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr().to_string();

    // submit a deliberately slow job, then vanish right after admission
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        let spec = JobSpec { stall_us: 200_000, ..small_job("ghost") };
        write_frame(&mut s, &Request::Submit(spec).to_json()).unwrap();
        let mut reader = BufReader::new(s.try_clone().unwrap());
        let FrameIn::Msg(v) = read_frame(&mut reader).unwrap() else {
            panic!("expected accepted")
        };
        assert!(matches!(
            Response::from_json(&v).unwrap(),
            Response::Accepted { .. }
        ));
        // both halves dropped here: the reader sees EOF and cancels
    }

    // a well-behaved client still gets served (waits behind the stall
    // at worst) and shutdown joins everything — no leaked pool epoch
    assert_served_ok(&addr, "patient");
    let summary = server.shutdown();
    let (admitted, _rej, completed, cancelled, failed) = summary.totals;
    assert_eq!(admitted, 2);
    assert_eq!(completed, 1);
    assert_eq!(cancelled, 1, "ghost job cancelled, not completed");
    assert_eq!(failed, 0);
    assert_eq!(admitted, completed + cancelled + failed);
}

#[test]
fn backpressure_rejects_over_quota_submissions_with_retry_hint() {
    let cfg = ServeConfig { workers: 1, slots: 1, queue_cap: 1, ..ServeConfig::default() };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr().to_string();

    // pipeline 6 slow submissions without reading, so the single lane
    // (cap 1) plus the single runner must push back on the excess
    let mut s = TcpStream::connect(&addr).unwrap();
    let spec = JobSpec { stall_us: 100_000, ..small_job("flood") };
    for _ in 0..6 {
        write_frame(&mut s, &Request::Submit(spec.clone()).to_json()).unwrap();
    }
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let (mut accepted, mut rejected) = (0u32, 0u32);
    for _ in 0..6 {
        let FrameIn::Msg(v) = read_frame(&mut reader).unwrap() else {
            panic!("expected admission response")
        };
        match Response::from_json(&v).unwrap() {
            Response::Accepted { .. } => accepted += 1,
            Response::Rejected { reason, retry_after_ms } => {
                assert!(retry_after_ms >= 1, "retry hint present");
                assert!(reason.contains("queue"), "got: {reason}");
                rejected += 1;
            }
            other => panic!("unexpected: {}", other.to_json().dump()),
        }
    }
    assert!(accepted >= 1, "at least the first job fits");
    assert!(rejected >= 1, "the flood hits the bounded lane");

    // terminal frames for every accepted job still arrive, in order
    for _ in 0..accepted {
        let FrameIn::Msg(v) = read_frame(&mut reader).unwrap() else {
            panic!("expected terminal frame")
        };
        assert!(matches!(Response::from_json(&v).unwrap(), Response::Done { .. }));
    }
    drop((s, reader));

    let summary = server.shutdown();
    let (adm, rej, comp, _canc, _fail) = summary.totals;
    assert_eq!(adm, u64::from(accepted));
    assert_eq!(rej, u64::from(rejected));
    assert_eq!(comp, u64::from(accepted));
}

#[test]
fn stats_and_remote_shutdown_round_trip() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();

    assert_served_ok(&addr, "tenant-a");
    assert_served_ok(&addr, "tenant-b");
    assert_served_ok(&addr, "tenant-a");

    let mut client = Client::connect(&addr).unwrap();
    let stats = client.stats().unwrap();
    let tenants = stats.get("tenants").unwrap().as_arr().unwrap().to_vec();
    let row = |name: &str| {
        tenants
            .iter()
            .find(|t| t.field::<String>("tenant").ok().as_deref() == Some(name))
            .unwrap_or_else(|| panic!("tenant {name} missing from stats"))
            .clone()
    };
    assert_eq!(row("tenant-a").field::<u64>("jobs_admitted").unwrap(), 2);
    assert_eq!(row("tenant-b").field::<u64>("jobs_admitted").unwrap(), 1);
    assert_eq!(row("tenant-a").field::<u64>("jobs_completed").unwrap(), 2);

    // remote shutdown: acknowledged, then wait() returns the summary
    client.shutdown().unwrap();
    let summary = server.wait();
    assert_eq!(summary.totals.2, 3, "three completed jobs in the summary");
    assert!(summary.mux.leases >= 3, "each job leased a pool");
}

#[test]
fn oversized_job_specs_are_rejected_at_admission() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // a ~40 GB allocation request is refused before any allocation;
    // retry_after_ms 0 marks it permanent, so even the retrying client
    // returns it instead of spinning
    let spec = JobSpec { size: 100_000, ..small_job("greedy") };
    match client.submit_retrying(&spec).unwrap() {
        Response::Rejected { reason, retry_after_ms } => {
            assert!(reason.contains("size"), "got: {reason}");
            assert_eq!(retry_after_ms, 0, "validation rejections are permanent");
        }
        other => panic!("expected rejected, got {}", other.to_json().dump()),
    }

    // same connection still serves a conforming job
    match client.submit(&small_job("greedy")).unwrap() {
        Response::Done { .. } => {}
        other => panic!("expected done, got {}", other.to_json().dump()),
    }
    let summary = server.shutdown();
    let (admitted, rejected, completed, ..) = summary.totals;
    assert_eq!((admitted, rejected, completed), (1, 1, 1));
}

#[test]
fn unknown_kernel_fails_the_job_not_the_daemon() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let spec = JobSpec { kernel: "no-such-kernel".into(), ..small_job("acme") };
    match client.submit(&spec).unwrap() {
        Response::Failed { error, .. } => {
            assert!(error.contains("no-such-kernel"), "got: {error}")
        }
        other => panic!("expected failed, got {}", other.to_json().dump()),
    }
    assert_served_ok(&addr, "acme");
    let summary = server.shutdown();
    let (_adm, _rej, completed, _canc, failed) = summary.totals;
    assert_eq!((completed, failed), (1, 1));
}

/// Submits `spec` on a raw connection and returns its job id, after
/// checking that `accepted` comes first and `done` names the same job.
fn submit_in_order(
    conn: &mut TcpStream,
    replies: &mut BufReader<TcpStream>,
    spec: &JobSpec,
) -> u64 {
    write_frame(conn, &Request::Submit(spec.clone()).to_json()).unwrap();
    let mut next = || match read_frame(replies).unwrap() {
        FrameIn::Msg(v) => Response::from_json(&v).unwrap(),
        other => panic!("expected a frame, got {other:?}"),
    };
    let Response::Accepted { job_id, .. } = next() else { panic!("first frame is not `accepted`") };
    match next() {
        Response::Done { job_id: done, .. } => assert_eq!(done, job_id),
        other => panic!("job {job_id}: {}", other.to_json().dump()),
    }
    job_id
}

#[test]
fn inline_and_queued_jobs_keep_the_invariant_side_by_side() {
    // Two connections of tiny jobs, which readers run themselves while
    // every lane is empty, beside one of stalled jobs, which always
    // queue; that client hangs up in the middle of its last stall.
    const TINY: u64 = 300;
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let connect = || {
        let conn = TcpStream::connect(&addr).unwrap();
        // a frame is two writes: Nagle would hold the body for an ACK
        conn.set_nodelay(true).unwrap();
        let replies = BufReader::new(conn.try_clone().unwrap());
        (conn, replies)
    };
    std::thread::scope(|s| {
        for tenant in ["t0", "t1"] {
            s.spawn(move || {
                let (mut conn, mut replies) = connect();
                let mut last_id = 0;
                for _ in 0..TINY {
                    let id = submit_in_order(&mut conn, &mut replies, &small_job(tenant));
                    assert!(id > last_id, "job ids go up per connection");
                    last_id = id;
                }
            });
        }
        s.spawn(move || {
            let (mut conn, mut replies) = connect();
            let stalled = JobSpec { stall_us: 5_000, ..small_job("stall") };
            let mut last_id = 0;
            for _ in 0..5 {
                let id = submit_in_order(&mut conn, &mut replies, &stalled);
                assert!(id > last_id, "job ids go up per connection");
                last_id = id;
            }
            let ghost = JobSpec { stall_us: 400_000, ..stalled };
            write_frame(&mut conn, &Request::Submit(ghost).to_json()).unwrap();
            let FrameIn::Msg(v) = read_frame(&mut replies).unwrap() else { panic!("no frame") };
            assert!(matches!(Response::from_json(&v).unwrap(), Response::Accepted { .. }));
            std::thread::sleep(std::time::Duration::from_millis(100));
        });
    });
    let summary = server.shutdown();
    let (admitted, rejected, completed, cancelled, failed) = summary.totals;
    assert_eq!((rejected, cancelled, failed), (0, 1, 0));
    assert_eq!(completed, 2 * TINY + 5);
    assert_eq!(admitted, completed + cancelled + failed);
    // one lease per job run; the cancelled job also held one through
    // its stall unless its client left before a runner took it
    let ran = completed + failed;
    assert!((ran..=ran + cancelled).contains(&summary.mux.leases), "{:?}", summary.mux);
}

#[test]
fn accepted_always_precedes_the_terminal_frame() {
    // regression: the job was enqueued before `accepted` was written,
    // so a fast runner's `done` could overtake it (about one tiny job
    // in a few hundred) and `Client::submit` desynchronised: it took
    // the early `done` as terminal and the late `accepted` as the next
    // job's answer
    const JOBS: usize = 2000;
    let server = Server::start(ServeConfig { workers: 1, ..ServeConfig::default() }).unwrap();
    let addr = server.addr().to_string();
    std::thread::scope(|s| {
        for tenant in ["t0", "t1"] {
            let addr = &addr;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let job = JobSpec { size: 16, ..small_job(tenant) };
                let mut last_id = None;
                for n in 0..JOBS {
                    match client.submit(&job).expect("submit") {
                        Response::Done { job_id, .. } => {
                            assert!(Some(job_id) > last_id, "job ids go up per connection");
                            last_id = Some(job_id);
                        }
                        other => panic!("job {n} of {tenant}: {}", other.to_json().dump()),
                    }
                }
            });
        }
    });
    let (admitted, rejected, completed, cancelled, failed) = server.shutdown().totals;
    assert_eq!(admitted, 2 * JOBS as u64);
    assert_eq!((rejected, completed, cancelled, failed), (0, admitted, 0, 0));
}
