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
//! ```

use ezp_core::error::Error;
use ezp_core::json::ToJson;
use ezp_core::Result;
use ezp_serve::{Client, JobSpec, Response, ServeConfig, Server};
use std::fmt::Write as _;

/// Default TCP port of `easypap serve` / `easypap submit`.
pub const DEFAULT_PORT: u16 = 7878;

/// Splits `--flag=value` / `--flag value` argument styles: returns the
/// flag name and, for the `=` style, the inline value.
fn split_flag(arg: &str) -> (&str, Option<&str>) {
    match arg.split_once('=') {
        Some((flag, value)) => (flag, Some(value)),
        None => (arg, None),
    }
}

/// The value of `flag`, inline or as the following argument.
fn flag_value<'a>(
    flag: &str,
    inline: Option<&'a str>,
    it: &mut std::slice::Iter<'a, String>,
) -> Result<&'a str> {
    match inline {
        Some(v) => Ok(v),
        None => it
            .next()
            .map(String::as_str)
            .ok_or_else(|| Error::Config(format!("{flag} needs a value"))),
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T> {
    value
        .parse()
        .map_err(|_| Error::Config(format!("{flag}: invalid value `{value}`")))
}

/// `easypap serve [--port N] [--workers N] [--slots N] [--max-tenants N]
/// [--queue-cap N]` — run the daemon in the foreground until a client
/// sends `shutdown`.
pub fn run_serve(args: &[String]) -> Result<String> {
    let mut cfg = ServeConfig { port: DEFAULT_PORT, ..ServeConfig::default() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = split_flag(arg);
        match flag {
            "--port" => cfg.port = parse_num(flag, flag_value(flag, inline, &mut it)?)?,
            "--workers" => {
                cfg.workers = parse_num(flag, flag_value(flag, inline, &mut it)?)?;
                if cfg.workers == 0 {
                    return Err(Error::Config("--workers must be > 0".into()));
                }
            }
            "--slots" => {
                cfg.slots = parse_num(flag, flag_value(flag, inline, &mut it)?)?;
                if cfg.slots == 0 {
                    return Err(Error::Config("--slots must be > 0".into()));
                }
            }
            "--max-tenants" => {
                cfg.max_tenants = parse_num(flag, flag_value(flag, inline, &mut it)?)?;
                if cfg.max_tenants == 0 {
                    return Err(Error::Config("--max-tenants must be > 0".into()));
                }
            }
            "--queue-cap" => {
                cfg.queue_cap = parse_num(flag, flag_value(flag, inline, &mut it)?)?;
                if cfg.queue_cap == 0 {
                    return Err(Error::Config("--queue-cap must be > 0".into()));
                }
            }
            other => {
                return Err(Error::Config(format!("easypap serve: unknown option `{other}`")))
            }
        }
    }
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

/// `easypap submit [--host H] [--port N] [--kernel K] [--variant V]
/// [-s N] [-ts N] [-i N] [-t N] [--tenant T] [--stall-us N] [--retry]
/// [--report] | --server-stats | --stop` — submit one job to a running
/// daemon (or query/stop it).
pub fn run_submit(args: &[String]) -> Result<String> {
    let mut host = "127.0.0.1".to_string();
    let mut port = DEFAULT_PORT;
    let mut spec = JobSpec::default();
    let (mut retry, mut report, mut stats_mode, mut stop_mode) = (false, false, false, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = split_flag(arg);
        match flag {
            "--host" => host = flag_value(flag, inline, &mut it)?.to_string(),
            "--port" => port = parse_num(flag, flag_value(flag, inline, &mut it)?)?,
            "--kernel" | "-k" => spec.kernel = flag_value(flag, inline, &mut it)?.to_string(),
            "--variant" | "-v" => spec.variant = flag_value(flag, inline, &mut it)?.to_string(),
            "--size" | "-s" => spec.size = parse_num(flag, flag_value(flag, inline, &mut it)?)?,
            "--tile-size" | "-ts" => {
                spec.tile = parse_num(flag, flag_value(flag, inline, &mut it)?)?
            }
            "--iterations" | "-i" => {
                spec.iterations = parse_num(flag, flag_value(flag, inline, &mut it)?)?
            }
            "--threads" | "-t" => {
                spec.threads = parse_num(flag, flag_value(flag, inline, &mut it)?)?
            }
            "--tenant" => spec.tenant = Some(flag_value(flag, inline, &mut it)?.to_string()),
            "--stall-us" => {
                spec.stall_us = parse_num(flag, flag_value(flag, inline, &mut it)?)?
            }
            "--retry" => retry = true,
            "--report" => report = true,
            "--server-stats" => stats_mode = true,
            "--stop" => stop_mode = true,
            other => {
                return Err(Error::Config(format!("easypap submit: unknown option `{other}`")))
            }
        }
    }
    let addr = format!("{host}:{port}");
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
    let resp = if retry { client.submit_retrying(&spec)? } else { client.submit(&spec)? };
    match resp {
        Response::Done { job_id, tenant, elapsed_ns, iterations, digest, report: rep } => {
            let mut out = String::new();
            writeln!(
                out,
                "job {job_id} (tenant {tenant}) done: {iterations} iteration(s) in {:.1} ms, \
                 digest {digest}",
                elapsed_ns as f64 / 1e6
            )
            .unwrap();
            if report {
                out.push_str(&rep.pretty());
                out.push('\n');
            }
            Ok(out)
        }
        Response::Rejected { reason, retry_after_ms } => Err(Error::Config(format!(
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
            "--port", &port, "--kernel", "mandel", "--variant", "seq", "-s", "64", "-i", "2",
            "--tenant", "cli-test", "--report",
        ]))
        .unwrap();
        assert!(out.contains("(tenant cli-test) done: 2 iteration(s)"), "got: {out}");
        assert!(out.contains("digest "), "got: {out}");
        assert!(out.contains("\"tenant\": \"cli-test\""), "report rides along: {out}");

        let stats = run_submit(&argv(&["--port", &port, "--server-stats"])).unwrap();
        assert!(stats.contains("\"jobs_admitted\""), "got: {stats}");
        assert!(stats.contains("cli-test"), "got: {stats}");

        let bye = run_submit(&argv(&["--port", &port, "--stop"])).unwrap();
        assert!(bye.contains("acknowledged shutdown"), "got: {bye}");
        let summary = server.wait();
        assert_eq!(summary.totals.2, 1, "one completed job");
    }

    #[test]
    fn serve_subcommand_runs_until_remotely_stopped() {
        // fixed port: the foreground `serve` path cannot report an
        // ephemeral port back to the test
        let port = "39471";
        let handle = {
            let args = argv(&["--port", port, "--workers", "1", "--slots", "1"]);
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
        run_submit(&argv(&["--port", port, "--stop"])).unwrap();
        let summary = handle.join().unwrap().unwrap();
        assert!(summary.contains("served 1 job(s) (1 completed"), "got: {summary}");
        assert!(summary.contains("pool leases: 1"), "got: {summary}");
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
