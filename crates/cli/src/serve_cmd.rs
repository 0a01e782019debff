//! `easypap serve` and `easypap submit` — the persistent-service front
//! end.
//!
//! `serve` keeps kernels, registry, and worker pools warm in a
//! long-running daemon; `submit` is the matching client. Both are
//! plain argv→text functions like the rest of the CLI so the parsing
//! and the output formatting are unit-testable without a terminal:
//!
//! ```text
//! easypap serve --port 7878 --workers 4 --slots 2 --max-tenants 8 &
//! easypap submit --port 7878 --kernel mandel --variant seq -s 256 --tenant acme
//! job 1 (tenant acme) done: 1 iteration(s) in 12.3 ms, digest 59ca7…
//! { "schema": 3, "counters": …, "spans": [queue, lease, compute, iteration totals] }
//! ```

use ezp_core::error::Error;
use ezp_core::json::ToJson;
use ezp_core::params::Grammar::{Int, Switch, Text};
use ezp_core::params::{fit, parse, Command, Flag, MAX_DIM, MAX_THREADS};
use ezp_core::Result;
use ezp_serve::{Client, JobSpec, Response, ServeConfig, Server};
use std::fmt::Write as _;

/// Default TCP port of `easypap serve` / `easypap submit`.
pub const DEFAULT_PORT: u16 = 7878;

/// The `easypap serve` flag table. The daemon spawns `--slots` pools of
/// `--workers` threads up front, hence the caps on both.
#[rustfmt::skip]
pub(crate) static SERVE: Command<ServeConfig> = Command {
    name: "easypap serve",
    positionals: 0,
    modes: &[],
    flags: &[
        Flag::new(&["--port"], Int(0, 65535, |c, n| c.port = fit(n))),
        Flag::new(&["--workers"], Int(1, MAX_THREADS, |c, n| c.workers = fit(n))),
        Flag::new(&["--slots"], Int(1, 32, |c, n| c.slots = fit(n))),
        Flag::new(&["--max-tenants"], Int(1, 4096, |c, n| c.max_tenants = fit(n))),
        Flag::new(&["--queue-cap"], Int(1, 65536, |c, n| c.queue_cap = fit(n))),
    ],
};

/// `easypap serve`: run the daemon in the foreground until a client
/// sends `shutdown`.
pub fn run_serve(args: &[String]) -> Result<String> {
    let mut cfg = ServeConfig {
        port: DEFAULT_PORT,
        ..ServeConfig::default()
    };
    parse(&SERVE, args, &mut cfg)?;
    let server = Server::start(cfg.clone())?;
    // the summary text below only materializes at shutdown; tell the
    // operator we are up via stderr so scripts can synchronize
    eprintln!(
        "easypap serve: listening on {} ({} worker(s) x {} slot(s), {} tenant(s), queue cap {})",
        server.addr(),
        cfg.workers,
        cfg.slots,
        cfg.max_tenants,
        cfg.queue_cap
    );
    let summary = server.wait();
    let (admitted, rejected, completed, cancelled, failed) = summary.totals;
    let mut out = String::new();
    writeln!(
        out,
        "served {admitted} job(s) ({completed} completed, {cancelled} cancelled, \
         {failed} failed), {rejected} rejected"
    )
    .unwrap();
    writeln!(
        out,
        "pool leases: {} ({} waited, {} ms blocked)",
        summary.mux.leases,
        summary.mux.lease_waits,
        summary.mux.wait_ns / 1_000_000
    )
    .unwrap();
    out.push_str(&summary.stats.pretty());
    out.push('\n');
    Ok(out)
}

/// Parsed `easypap submit` invocation.
#[derive(Default)]
pub(crate) struct SubmitArgs {
    /// `None`: the loopback address.
    host: Option<String>,
    /// `None`: [`DEFAULT_PORT`].
    port: Option<u16>,
    spec: JobSpec,
    retry: bool,
    stats_mode: bool,
    stop_mode: bool,
}

/// The `easypap submit` flag table. The job-geometry rows are
/// `easypap`'s, names and ranges alike (a test compares them); the
/// daemon applies its stricter `MAX_JOB_*` limits at admission.
#[rustfmt::skip]
pub(crate) static SUBMIT: Command<SubmitArgs> = Command {
    name: "easypap submit",
    positionals: 0,
    modes: &[],
    flags: &[
        Flag::new(&["--host"], Text(|a, s| a.host = Some(s.to_string()))),
        Flag::new(&["--port"], Int(0, 65535, |a, n| a.port = Some(fit(n)))),
        Flag::new(&["--kernel", "-k"], Text(|a, s| a.spec.kernel = s.to_string())),
        Flag::new(&["--variant", "-v"], Text(|a, s| a.spec.variant = s.to_string())),
        Flag::new(&["--size", "-s"], Int(1, MAX_DIM, |a, n| a.spec.size = fit(n))),
        Flag::new(&["--tile-size", "--grain", "-ts", "-g"], Int(1, MAX_DIM, |a, n| a.spec.tile = fit(n))),
        Flag::new(&["--iterations", "-i"], Int(0, u32::MAX as u64, |a, n| a.spec.iterations = fit(n))),
        Flag::new(&["--threads", "-t"], Int(1, MAX_THREADS, |a, n| a.spec.threads = fit(n))),
        Flag::new(&["--tenant"], Text(|a, s| a.spec.tenant = Some(s.to_string()))),
        Flag::new(&["--retry"], Switch(|a| a.retry = true)),
        Flag::new(&["--server-stats"], Switch(|a| a.stats_mode = true)),
        Flag::new(&["--stop"], Switch(|a| a.stop_mode = true)),
    ],
};

/// `easypap submit`: submit one job to a running daemon and print its
/// report, or query the daemon (`--server-stats`) or stop it (`--stop`).
pub fn run_submit(args: &[String]) -> Result<String> {
    let mut parsed = SubmitArgs::default();
    parse(&SUBMIT, args, &mut parsed)?;
    let SubmitArgs {
        host,
        port,
        spec,
        retry,
        stats_mode,
        stop_mode,
    } = parsed;
    let host = host.as_deref().unwrap_or("127.0.0.1");
    let addr = format!("{host}:{}", port.unwrap_or(DEFAULT_PORT));
    let mut client = Client::connect(&addr)
        .map_err(|e| Error::Config(format!("cannot reach easypap serve at {addr}: {e}")))?;
    if stats_mode {
        let stats = client.stats()?;
        return Ok(format!("{}\n", stats.pretty()));
    }
    if stop_mode {
        client.shutdown()?;
        return Ok(format!("easypap serve at {addr} acknowledged shutdown\n"));
    }
    let resp = if retry {
        client.submit_retrying(&spec)?
    } else {
        client.submit(&spec)?
    };
    match resp {
        Response::Done {
            job_id,
            tenant,
            elapsed_ns,
            iterations,
            digest,
            report,
        } => {
            let mut out = String::new();
            writeln!(
                out,
                "job {job_id} (tenant {tenant}) done: {iterations} iteration(s) in {:.1} ms, \
                 digest {digest}",
                elapsed_ns as f64 / 1e6
            )
            .unwrap();
            out.push_str(&report.pretty());
            out.push('\n');
            Ok(out)
        }
        Response::Rejected {
            reason,
            retry_after_ms,
        } => Err(Error::Config(format!(
            "server rejected the job: {reason} (retry after {retry_after_ms} ms, \
             or pass --retry to wait)"
        ))),
        Response::Failed { job_id, error } => {
            Err(Error::Config(format!("job {job_id} failed: {error}")))
        }
        other => Err(Error::Config(format!(
            "unexpected server response: {}",
            other.to_json().dump()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_options_are_rejected_with_the_subcommand_name() {
        let err = run_serve(&argv(&["--bogus"])).unwrap_err().to_string();
        assert!(err.contains("easypap serve"), "got: {err}");
        let err = run_submit(&argv(&["--bogus"])).unwrap_err().to_string();
        assert!(err.contains("easypap submit"), "got: {err}");
        assert!(run_serve(&argv(&["--workers", "0"])).is_err());
        assert!(run_serve(&argv(&["--port"])).is_err(), "missing value");
        // the retired channel knobs are ordinary unknown options now
        for gone in ["--wait-policy=park", "--chan-backend=mpsc", "--stages=1,2"] {
            let err = run_serve(&argv(&[gone])).unwrap_err().to_string();
            assert!(err.contains("unknown option"), "{gone}: {err}");
        }
        // a stall is set on the wire (`JobSpec::stall_us`), not from the
        // CLI, and a job's report always prints
        for gone in [&["--stall-us", "1000"][..], &["--report"]] {
            let err = run_submit(&argv(gone)).unwrap_err().to_string();
            assert!(err.contains("unknown option"), "{gone:?}: {err}");
        }
    }

    #[test]
    fn submit_without_a_daemon_names_the_address() {
        // port 9 (discard) is never an easypap server
        let err = run_submit(&argv(&["--port", "9"])).unwrap_err().to_string();
        assert!(err.contains("cannot reach"), "got: {err}");
        assert!(err.contains(":9"), "got: {err}");
    }

    #[test]
    fn submit_stats_and_stop_drive_an_in_process_daemon() {
        // ephemeral-port daemon, exercised through the submit front end
        let server = Server::start(ServeConfig::default()).unwrap();
        let port = server.addr().port().to_string();
        let out = run_submit(&argv(&[
            "--port",
            &port,
            "--kernel",
            "mandel",
            "--variant",
            "seq",
            "-s",
            "64",
            "-i",
            "2",
            "--tenant",
            "cli-test",
        ]))
        .unwrap();
        assert!(
            out.contains("(tenant cli-test) done: 2 iteration(s)"),
            "got: {out}"
        );
        assert!(out.contains("digest "), "got: {out}");
        // the report prints without asking, its phases first
        assert!(out.contains("\"schema\": 3"), "no report: {out}");
        assert!(out.contains("\"name\": \"queue\""), "got: {out}");
        assert!(
            !out.contains("\"tenant\""),
            "the tenant is in the done line only: {out}"
        );
        // the per-job report lists what the job moved; a counter that
        // read 0 is absent
        assert!(out.contains("\"tasks_executed\""), "got: {out}");
        assert!(
            !out.contains("\"steals_attempted\""),
            "a zero counter was printed: {out}"
        );

        let stats = run_submit(&argv(&["--port", &port, "--server-stats"])).unwrap();
        assert!(stats.contains("\"jobs_admitted\""), "got: {stats}");
        assert!(stats.contains("cli-test"), "got: {stats}");

        let bye = run_submit(&argv(&["--port", &port, "--stop"])).unwrap();
        assert!(bye.contains("acknowledged shutdown"), "got: {bye}");
        let summary = server.wait();
        assert_eq!(summary.totals.2, 1, "one completed job");
    }

    /// One daemon through the foreground `serve` path: a job, an
    /// over-quota `submit` and what it leaves in the stats and the
    /// summary, then a remote stop.
    #[test]
    fn serve_subcommand_runs_until_remotely_stopped() {
        use ezp_core::json::{FromJson, Json};
        use ezp_serve::proto::{read_frame, write_frame, FrameIn};
        use ezp_serve::Request;

        // fixed port: the foreground `serve` path cannot report an
        // ephemeral port back to the test
        let port = "39471";
        let handle = {
            let args = argv(&[
                "--port",
                port,
                "--workers",
                "1",
                "--slots",
                "1",
                "--queue-cap=1",
            ]);
            std::thread::spawn(move || run_serve(&args))
        };
        // wait for the listener, then run one job and stop the daemon
        let mut last_err = String::new();
        let mut served = false;
        for _ in 0..100 {
            match run_submit(&argv(&["--port", port, "--kernel", "mandel", "-s", "64"])) {
                Ok(out) => {
                    assert!(out.contains("done: 1 iteration(s)"), "got: {out}");
                    served = true;
                    break;
                }
                Err(e) => last_err = e.to_string(),
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert!(served, "daemon never came up: {last_err}");

        // Over quota, held by `stall_us` rather than by sleeps: on one
        // connection a stalled `hold` job, then a `ci` job. The single
        // runner scans tenants round robin from the slot after the one it
        // last served, so it takes `hold` (registered before `ci`) and
        // stalls on the one pool slot, which keeps the `ci` job off the
        // reader's inline path: it fills that tenant's one-deep lane.
        let mut conn = std::net::TcpStream::connect(format!("127.0.0.1:{port}")).unwrap();
        let mut replies = std::io::BufReader::new(conn.try_clone().unwrap());
        let mut next = || match read_frame(&mut replies).unwrap() {
            FrameIn::Msg(v) => Response::from_json(&v).unwrap(),
            other => panic!("expected a frame, got {other:?}"),
        };
        let hold = JobSpec {
            tenant: Some("hold".into()),
            stall_us: 500_000,
            ..JobSpec::default()
        };
        let queued = JobSpec {
            tenant: Some("ci".into()),
            ..JobSpec::default()
        };
        for spec in [hold, queued] {
            write_frame(&mut conn, &Request::Submit(spec).to_json()).unwrap();
            assert!(matches!(next(), Response::Accepted { .. }));
        }
        let err = run_submit(&argv(&[
            "--port", port, "-k", "mandel", "-s", "64", "--tenant", "ci",
        ]))
        .unwrap_err()
        .to_string();
        for needle in ["rejected", "retry after", "--retry"] {
            assert!(err.contains(needle), "no {needle:?} in: {err}");
        }
        for _ in 0..2 {
            assert!(matches!(next(), Response::Done { .. }));
        }
        drop(conn);

        let stats = run_submit(&argv(&["--port", port, "--server-stats"])).unwrap();
        let stats = Json::parse(&stats).unwrap();
        let tenants = stats.get("tenants").unwrap().as_arr().unwrap();
        let ci = tenants
            .iter()
            .find(|t| t.field::<String>("tenant").unwrap() == "ci")
            .unwrap();
        assert!(
            ci.field::<u64>("jobs_rejected").unwrap() >= 1,
            "{}",
            ci.dump()
        );
        assert!(
            ci.field::<u64>("tenant_queue_depth").unwrap() >= 1,
            "{}",
            ci.dump()
        );
        assert!(ci.get("tenant_idle_ns").is_some(), "{}", ci.dump());

        run_submit(&argv(&["--port", port, "--stop"])).unwrap();
        let summary = handle.join().unwrap().unwrap();
        let totals = "served 3 job(s) (3 completed, 0 cancelled, 0 failed), 1 rejected";
        assert!(summary.contains(totals), "got: {summary}");
        assert!(summary.contains("pool leases: 3"), "got: {summary}");
    }

    #[test]
    fn failed_jobs_surface_as_cli_errors() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let port = server.addr().port().to_string();
        let err = run_submit(&argv(&["--port", &port, "--kernel", "no-such"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("failed"), "got: {err}");
        drop(server);
    }
}
