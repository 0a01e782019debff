//! The load generator's serve client: raw `proto` frames paired by
//! `job_id`.
//!
//! At `stall_us = 0` the daemon sometimes writes a job's `done` before
//! its `accepted` (the reader thread enqueues, a runner finishes, then
//! the reader sends `Accepted`). `ezp_serve::Client::submit` treats the
//! first non-`accepted` frame as terminal and desynchronises on that;
//! this client reads until it holds *both* frames of its job, in either
//! order, and counts the reorderings instead of failing on them.

use ezp_core::json::{FromJson, ToJson};
use ezp_serve::proto::{read_frame, write_frame, FrameIn};
use ezp_serve::{JobSpec, Request, Response};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Both frames of one submitted job.
#[derive(Debug)]
pub struct Paired {
    /// `done`, `failed`, `rejected` or `error`.
    pub terminal: Response,
    /// The terminal frame arrived before `accepted`.
    pub out_of_order: bool,
    /// When the request was about to be written.
    pub sent: Instant,
    /// When the terminal frame was decoded.
    pub finished: Instant,
}

impl Paired {
    /// Request written → terminal frame decoded.
    pub fn latency(&self) -> Duration {
        self.finished - self.sent
    }
}

/// One connection, one job in flight at a time (a closed loop).
pub struct PairingClient<R, W> {
    reader: R,
    writer: W,
}

impl PairingClient<BufReader<TcpStream>, TcpStream> {
    /// Connects with `TCP_NODELAY` and a read timeout, so a daemon that
    /// drops a frame fails the operation instead of hanging the run.
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(PairingClient {
            reader: BufReader::new(stream),
            writer,
        })
    }
}

impl<R: Read, W: Write> PairingClient<R, W> {
    /// A client over arbitrary byte streams: tests script the daemon's
    /// side.
    #[cfg(test)]
    pub fn over(reader: R, writer: W) -> Self {
        PairingClient { reader, writer }
    }

    fn recv(&mut self) -> Result<Response, String> {
        match read_frame(&mut self.reader).map_err(|e| format!("read frame: {e}"))? {
            FrameIn::Msg(json) => {
                Response::from_json(&json).map_err(|e| format!("decode frame: {e}"))
            }
            FrameIn::Eof => Err("daemon closed the connection".to_string()),
            FrameIn::Malformed(why) => Err(format!("malformed daemon frame: {why}")),
        }
    }

    /// Submits `spec` and reads until both the `accepted` and the
    /// terminal frame of that job are in hand, whichever came first.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<Paired, String> {
        let sent = Instant::now();
        write_frame(&mut self.writer, &Request::Submit(spec.clone()).to_json())
            .map_err(|e| format!("write submit: {e}"))?;
        let mut accepted: Option<u64> = None;
        let mut terminal: Option<(Option<u64>, Response, Instant)> = None;
        let mut out_of_order = false;
        while accepted.is_none() || terminal.is_none() {
            let resp = self.recv()?;
            let now = Instant::now();
            match resp {
                Response::Accepted { job_id, .. } if accepted.is_none() => {
                    accepted = Some(job_id);
                }
                Response::Done { job_id, .. } | Response::Failed { job_id, .. }
                    if terminal.is_none() =>
                {
                    out_of_order = accepted.is_none();
                    terminal = Some((Some(job_id), resp, now));
                }
                // admission said no: there is no `accepted` to wait for
                Response::Rejected { .. } | Response::Error(_) if accepted.is_none() => {
                    terminal = Some((None, resp, now));
                    break;
                }
                other => return Err(format!("unexpected frame {}", other.to_json().dump())),
            }
        }
        let (terminal_id, terminal, finished) = terminal.expect("loop exits with a terminal frame");
        if let (Some(acc_id), Some(term_id)) = (accepted, terminal_id) {
            if acc_id != term_id {
                return Err(format!("accepted job {acc_id} but job {term_id} finished"));
            }
        }
        Ok(Paired {
            terminal,
            out_of_order,
            sent,
            finished,
        })
    }

    /// Sends `shutdown` and waits for the acknowledgement.
    pub fn shutdown(&mut self) -> Result<(), String> {
        write_frame(&mut self.writer, &Request::Shutdown.to_json())
            .map_err(|e| format!("write shutdown: {e}"))?;
        match self.recv()? {
            Response::ShuttingDown => Ok(()),
            other => Err(format!(
                "unexpected answer to shutdown: {}",
                other.to_json().dump()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::json::Json;
    use ezp_serve::{ServeConfig, Server};
    use std::io::Cursor;

    fn frames(responses: &[Response]) -> Cursor<Vec<u8>> {
        let mut buf = Vec::new();
        for r in responses {
            write_frame(&mut buf, &r.to_json()).unwrap();
        }
        Cursor::new(buf)
    }

    fn done(job_id: u64) -> Response {
        Response::Done {
            job_id,
            tenant: "t0".into(),
            elapsed_ns: 5,
            iterations: 1,
            digest: "00".into(),
            report: Json::Null,
        }
    }

    fn accepted(job_id: u64) -> Response {
        Response::Accepted {
            job_id,
            tenant: "t0".into(),
        }
    }

    #[test]
    fn done_before_accepted_is_paired_and_counted() {
        // job 1 in protocol order, job 2 reordered, job 3 in order again:
        // the reordering must not desynchronise the jobs after it
        let script = frames(&[
            accepted(1),
            done(1),
            done(2),
            accepted(2),
            accepted(3),
            done(3),
        ]);
        let mut c = PairingClient::over(script, Vec::new());
        let spec = JobSpec::default();
        let order: Vec<bool> = (1..=3u64)
            .map(|id| {
                let p = c.submit(&spec).unwrap();
                assert!(matches!(p.terminal, Response::Done { job_id, .. } if job_id == id));
                p.out_of_order
            })
            .collect();
        assert_eq!(order, [false, true, false]);
    }

    #[test]
    fn mismatched_ids_and_stray_frames_are_errors() {
        let mut c = PairingClient::over(frames(&[accepted(1), done(2)]), Vec::new());
        assert!(c
            .submit(&JobSpec::default())
            .unwrap_err()
            .contains("job 2 finished"));
        let mut c = PairingClient::over(frames(&[accepted(1), accepted(1)]), Vec::new());
        assert!(c
            .submit(&JobSpec::default())
            .unwrap_err()
            .contains("unexpected frame"));
        let mut c = PairingClient::over(frames(&[accepted(1)]), Vec::new());
        assert!(c
            .submit(&JobSpec::default())
            .unwrap_err()
            .contains("closed"));
    }

    #[test]
    fn rejection_is_terminal_without_accepted() {
        let rej = Response::Rejected {
            reason: "full".into(),
            retry_after_ms: 5,
        };
        let mut c = PairingClient::over(frames(&[rej, accepted(9), done(9)]), Vec::new());
        let p = c.submit(&JobSpec::default()).unwrap();
        assert!(matches!(p.terminal, Response::Rejected { .. }));
        assert!(!p.out_of_order);
        // the connection is still in step for the next job
        let p = c.submit(&JobSpec::default()).unwrap();
        assert!(matches!(p.terminal, Response::Done { job_id: 9, .. }));
    }

    #[test]
    fn pairs_jobs_against_an_in_process_server() {
        let server = Server::start(ServeConfig {
            workers: 1,
            slots: 2,
            ..ServeConfig::default()
        })
        .expect("start daemon");
        let addr = server.addr().to_string();
        let mut c = PairingClient::connect(&addr).unwrap();
        let spec = JobSpec {
            tenant: Some("t0".into()),
            ..JobSpec::default()
        };
        let mut digests = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let p = c.submit(&spec).unwrap();
            match p.terminal {
                Response::Done {
                    digest, iterations, ..
                } => {
                    assert_eq!(iterations, 1);
                    digests.insert(digest);
                }
                other => panic!("job did not complete: {other:?}"),
            }
        }
        assert_eq!(digests.len(), 1, "same spec, same pixels");
        drop(c);
        let (admitted, rejected, completed, cancelled, failed) = server.shutdown().totals;
        assert_eq!((admitted, rejected, failed), (200, 0, 0));
        assert_eq!(admitted, completed + cancelled + failed);
    }
}
