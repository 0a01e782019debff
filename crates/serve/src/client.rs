//! Blocking client for the serve protocol.
//!
//! Used by `easypap submit` and the daemon's tests. One [`Client`] owns
//! one TCP connection; `submit` is a synchronous request/response
//! exchange (wait for `accepted`, then for the terminal `done` /
//! `failed` frame), which keeps the client
//! trivially correct — concurrency comes from running several
//! clients, exactly like independent tenants would.

use std::io::BufReader;
use std::net::TcpStream;

use ezp_core::json::{FromJson, ToJson};
use ezp_core::{Error, Result};

use crate::proto::{read_frame, write_frame, FrameIn, JobSpec, Request, Response};

/// A blocking connection to an `ezp-serve` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon, e.g. `Client::connect("127.0.0.1:7878")`.
    pub fn connect(addr: &str) -> Result<Self> {
        let stream = TcpStream::connect(addr).map_err(Error::Io)?;
        // request/response frames are small; Nagle + delayed ACK would
        // add tens of ms to every exchange
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().map_err(Error::Io)?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, req: &Request) -> Result<()> {
        write_frame(&mut self.writer, &req.to_json()).map_err(Error::Io)
    }

    fn recv(&mut self) -> Result<Response> {
        match read_frame(&mut self.reader)? {
            FrameIn::Msg(json) => Response::from_json(&json),
            FrameIn::Eof => Err(Error::Config("server closed the connection".into())),
            FrameIn::Malformed(why) => Err(Error::Config(format!("malformed server frame: {why}"))),
        }
    }

    /// Submits a job and blocks until its terminal response.
    ///
    /// Returns the terminal frame: [`Response::Done`] on success,
    /// [`Response::Failed`] when the kernel errored, or
    /// [`Response::Rejected`] when admission pushed back (the caller
    /// decides whether to honour `retry_after_ms`). The intermediate
    /// `accepted` frame is consumed internally.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<Response> {
        self.send(&Request::Submit(spec.clone()))?;
        match self.recv()? {
            Response::Accepted { .. } => {}
            terminal @ (Response::Rejected { .. } | Response::Error(_)) => return Ok(terminal),
            other => return Ok(other),
        }
        self.recv()
    }

    /// Submits a job, retrying rejected submissions until the daemon
    /// admits it. Sleeps for the server-suggested `retry_after_ms`
    /// between attempts. Returns the terminal `done`/`failed` frame —
    /// or the rejection itself when `retry_after_ms` is 0, the server's
    /// way of saying the rejection is permanent (invalid spec,
    /// shutdown) and resubmitting can never succeed.
    pub fn submit_retrying(&mut self, spec: &JobSpec) -> Result<Response> {
        loop {
            match self.submit(spec)? {
                Response::Rejected {
                    retry_after_ms: 0,
                    reason,
                } => {
                    return Ok(Response::Rejected {
                        retry_after_ms: 0,
                        reason,
                    })
                }
                Response::Rejected { retry_after_ms, .. } => {
                    std::thread::sleep(std::time::Duration::from_millis(retry_after_ms));
                }
                terminal => return Ok(terminal),
            }
        }
    }

    /// Fetches the daemon's per-tenant stats document.
    pub fn stats(&mut self) -> Result<ezp_core::json::Json> {
        self.send(&Request::Stats)?;
        match self.recv()? {
            Response::Stats(json) => Ok(json),
            Response::Error(e) => Err(Error::Config(format!("server error: {e}"))),
            other => Err(Error::Config(format!(
                "unexpected response to stats: {}",
                other.to_json().dump()
            ))),
        }
    }

    /// Asks the daemon to shut down. Returns once the daemon has
    /// acknowledged with `shutting_down`.
    pub fn shutdown(&mut self) -> Result<()> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            Response::ShuttingDown => Ok(()),
            Response::Error(e) => Err(Error::Config(format!("server error: {e}"))),
            other => Err(Error::Config(format!(
                "unexpected response to shutdown: {}",
                other.to_json().dump()
            ))),
        }
    }
}
