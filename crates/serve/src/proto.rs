//! The wire protocol: length-prefixed `ezp_core::json` frames.
//!
//! Every message is a 4-byte little-endian length followed by exactly
//! that many bytes of UTF-8 JSON. The length covers the JSON only, is
//! capped at [`MAX_FRAME`] (a daemon must not let one client allocate
//! arbitrary memory), and zero-length frames are rejected — a clean
//! close is an EOF *between* frames, never an empty one.
//!
//! Requests and responses are tagged objects (`{"type": "submit", ...}`)
//! so the protocol can grow without renumbering; unknown types are a
//! per-connection error, not a daemon panic. Encoding round-trips are
//! property-tested in this module.

use ezp_core::error::{Error, Result};
use ezp_core::json::{FromJson, Json, ToJson};
use std::io::{ErrorKind, Read, Write};

/// Maximum frame payload, in bytes. Larger prefixes are rejected
/// without reading the body.
pub const MAX_FRAME: usize = 1 << 20;

/// Largest square image dimension a job may request. Bounds the
/// daemon-side allocation a client can drive (two `size²` RGBA images):
/// 4096² is ~134 MB across both buffers.
pub const MAX_JOB_SIZE: usize = 4096;

/// Largest per-job iteration budget a client may request.
pub const MAX_JOB_ITERATIONS: u32 = 100_000;

/// Largest synthetic stall a job may request (5 s) — a stall occupies a
/// runner slot for its full duration.
pub const MAX_JOB_STALL_US: u64 = 5_000_000;

/// How reading one frame from a connection went.
#[derive(Debug)]
pub enum FrameIn {
    /// A complete, parseable frame.
    Msg(Json),
    /// The peer closed the connection at a frame boundary.
    Eof,
    /// The peer sent garbage: oversized/zero length prefix, a truncated
    /// body, or bytes that do not parse as JSON. The connection should
    /// be answered with an error and closed; the daemon keeps running.
    Malformed(String),
}

/// Reads one length-prefixed frame.
///
/// I/O errors other than a clean EOF surface as `Err`; protocol-level
/// garbage is [`FrameIn::Malformed`] so callers can distinguish "the
/// network broke" from "the client is speaking nonsense".
pub fn read_frame(r: &mut impl Read) -> Result<FrameIn> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(r, &mut len_buf) {
        Ok(false) => return Ok(FrameIn::Eof),
        Ok(true) => {}
        Err(e) => return Err(Error::Io(e)),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 {
        return Ok(FrameIn::Malformed("zero-length frame".to_string()));
    }
    if len > MAX_FRAME {
        return Ok(FrameIn::Malformed(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    let mut body = vec![0u8; len];
    match read_exact_or_eof(r, &mut body) {
        Ok(true) => {}
        Ok(false) => {
            return Ok(FrameIn::Malformed(format!(
                "connection closed inside a {len}-byte frame"
            )))
        }
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => {
            return Ok(FrameIn::Malformed(format!(
                "connection closed inside a {len}-byte frame"
            )))
        }
        Err(e) => return Err(Error::Io(e)),
    }
    let text = match String::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return Ok(FrameIn::Malformed("frame is not UTF-8".to_string())),
    };
    match Json::parse(&text) {
        Ok(v) => Ok(FrameIn::Msg(v)),
        Err(e) => Ok(FrameIn::Malformed(format!("frame is not JSON: {e}"))),
    }
}

/// `read_exact`, but a clean EOF *before the first byte* returns
/// `Ok(false)` instead of an error; EOF mid-buffer is `UnexpectedEof`.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "eof inside frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Writes one length-prefixed frame.
///
/// An oversized payload is an `InvalidData` error with nothing written,
/// not a panic: the caller loses one response, never the thread that
/// tried to send it.
pub fn write_frame(w: &mut impl Write, msg: &Json) -> std::io::Result<()> {
    let body = msg.dump();
    let len = body.len();
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("outgoing frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        ));
    }
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// One compute job as submitted by a client. Field-for-field this is
/// the serve-mode subset of `RunConfig` plus the tenant identity.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Kernel name (`mandel`, `blur`, ...).
    pub kernel: String,
    /// Kernel variant (`seq`, `omp_tiled`, ...).
    pub variant: String,
    /// Square image dimension.
    pub size: usize,
    /// Tile edge.
    pub tile: usize,
    /// Iteration budget.
    pub iterations: u32,
    /// Worker threads the job may use (clamped to the daemon's pool
    /// width at execution time).
    pub threads: usize,
    /// Tenant identity; empty/absent maps to the `"default"` tenant.
    pub tenant: Option<String>,
    /// Synthetic per-job stall in microseconds, modeling the upstream
    /// ingest/IO latency of a replayed production request. Stalls
    /// overlap across runner slots; 0 for pure compute.
    pub stall_us: u64,
}

impl JobSpec {
    /// Checks the spec against the daemon's per-job resource limits.
    /// Called at admission, before any allocation happens on the job's
    /// behalf — `MAX_FRAME` bounds the wire frame, this bounds what the
    /// decoded numbers inside it can make the daemon do.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.size == 0 || self.size > MAX_JOB_SIZE {
            return Err(format!(
                "size {} out of range (1..={MAX_JOB_SIZE})",
                self.size
            ));
        }
        if self.tile == 0 || self.tile > self.size {
            return Err(format!(
                "tile {} out of range (1..=size {})",
                self.tile, self.size
            ));
        }
        if self.iterations == 0 || self.iterations > MAX_JOB_ITERATIONS {
            return Err(format!(
                "iterations {} out of range (1..={MAX_JOB_ITERATIONS})",
                self.iterations
            ));
        }
        if self.stall_us > MAX_JOB_STALL_US {
            return Err(format!(
                "stall_us {} exceeds the {MAX_JOB_STALL_US} limit",
                self.stall_us
            ));
        }
        Ok(())
    }
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            kernel: "mandel".to_string(),
            variant: "seq".to_string(),
            size: 64,
            tile: 16,
            iterations: 1,
            threads: 1,
            tenant: None,
            stall_us: 0,
        }
    }
}

impl ToJson for JobSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kernel", self.kernel.to_json()),
            ("variant", self.variant.to_json()),
            ("size", self.size.to_json()),
            ("tile", self.tile.to_json()),
            ("iterations", self.iterations.to_json()),
            ("threads", self.threads.to_json()),
            ("tenant", self.tenant.to_json()),
            ("stall_us", self.stall_us.to_json()),
        ])
    }
}

impl FromJson for JobSpec {
    fn from_json(v: &Json) -> Result<JobSpec> {
        Ok(JobSpec {
            kernel: v.field("kernel")?,
            variant: v.field("variant")?,
            size: v.field("size")?,
            tile: v.field("tile")?,
            iterations: v.field("iterations")?,
            threads: v.field("threads")?,
            tenant: match v.get("tenant") {
                None => None,
                Some(t) => Option::<String>::from_json(t)?,
            },
            stall_us: match v.get("stall_us") {
                None => 0,
                Some(s) => u64::from_json(s)?,
            },
        })
    }
}

/// A client → daemon message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit one compute job.
    Submit(JobSpec),
    /// Ask for the daemon-wide per-tenant counter report.
    Stats,
    /// Ask the daemon to drain and exit.
    Shutdown,
}

impl ToJson for Request {
    fn to_json(&self) -> Json {
        match self {
            Request::Submit(spec) => {
                let mut fields = vec![("type".to_string(), Json::Str("submit".to_string()))];
                if let Json::Obj(spec_fields) = spec.to_json() {
                    fields.extend(spec_fields);
                }
                Json::Obj(fields)
            }
            Request::Stats => Json::obj([("type", "stats".to_json())]),
            Request::Shutdown => Json::obj([("type", "shutdown".to_json())]),
        }
    }
}

impl FromJson for Request {
    fn from_json(v: &Json) -> Result<Request> {
        let ty: String = v.field("type")?;
        match ty.as_str() {
            "submit" => Ok(Request::Submit(JobSpec::from_json(v)?)),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(Error::Json(format!(
                "unknown request type `{other}` (expected submit, stats or shutdown)"
            ))),
        }
    }
}

/// A daemon → client message. Job-bearing variants carry the `job_id`
/// assigned at admission so a client may keep several jobs in flight on
/// one connection.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The job entered its tenant's admission queue.
    Accepted {
        /// Daemon-wide job id.
        job_id: u64,
        /// Resolved tenant name.
        tenant: String,
    },
    /// Backpressure: the tenant's queue (or the tenant table) is full.
    Rejected {
        /// Why the job was not admitted.
        reason: String,
        /// Suggested client-side delay before resubmitting.
        retry_after_ms: u64,
    },
    /// The job ran to completion.
    Done {
        /// Daemon-wide job id (matches the `Accepted`).
        job_id: u64,
        /// Resolved tenant name.
        tenant: String,
        /// Wall time of the kernel run, nanoseconds.
        elapsed_ns: u64,
        /// Iterations actually executed.
        iterations: u32,
        /// FNV-1a digest of the final frame's pixels, as hex.
        digest: String,
        /// Per-job `UnifiedReport` (counters + spans), tenant-tagged. A
        /// counter that stayed 0 on every worker is omitted: absent
        /// means 0.
        report: Json,
    },
    /// The job was admitted but failed to run (unknown kernel/variant,
    /// bad geometry, kernel error).
    Failed {
        /// Daemon-wide job id.
        job_id: u64,
        /// The error text.
        error: String,
    },
    /// Answer to [`Request::Stats`]: the per-tenant counter report.
    Stats(Json),
    /// The peer sent a malformed or unintelligible frame; the daemon
    /// closes this connection after sending it.
    Error(String),
    /// Acknowledges [`Request::Shutdown`].
    ShuttingDown,
}

/// The encoding the daemon sends: a `done`'s report and a `stats`
/// document move into the frame instead of being deep-copied.
impl From<Response> for Json {
    fn from(resp: Response) -> Json {
        match resp {
            Response::Accepted { job_id, tenant } => Json::obj([
                ("type", "accepted".to_json()),
                ("job_id", job_id.to_json()),
                ("tenant", Json::Str(tenant)),
            ]),
            Response::Rejected { reason, retry_after_ms } => Json::obj([
                ("type", "rejected".to_json()),
                ("reason", Json::Str(reason)),
                ("retry_after_ms", retry_after_ms.to_json()),
            ]),
            Response::Done {
                job_id,
                tenant,
                elapsed_ns,
                iterations,
                digest,
                report,
            } => Json::obj([
                ("type", "done".to_json()),
                ("job_id", job_id.to_json()),
                ("tenant", Json::Str(tenant)),
                ("elapsed_ns", elapsed_ns.to_json()),
                ("iterations", iterations.to_json()),
                ("digest", Json::Str(digest)),
                ("report", report),
            ]),
            Response::Failed { job_id, error } => Json::obj([
                ("type", "failed".to_json()),
                ("job_id", job_id.to_json()),
                ("error", Json::Str(error)),
            ]),
            Response::Stats(j) => Json::obj([("type", "stats".to_json()), ("stats", j)]),
            Response::Error(msg) => {
                Json::obj([("type", "error".to_json()), ("error", Json::Str(msg))])
            }
            Response::ShuttingDown => Json::obj([("type", "shutting_down".to_json())]),
        }
    }
}

impl ToJson for Response {
    fn to_json(&self) -> Json {
        self.clone().into()
    }
}

impl FromJson for Response {
    fn from_json(v: &Json) -> Result<Response> {
        let ty: String = v.field("type")?;
        match ty.as_str() {
            "accepted" => Ok(Response::Accepted {
                job_id: v.field("job_id")?,
                tenant: v.field("tenant")?,
            }),
            "rejected" => Ok(Response::Rejected {
                reason: v.field("reason")?,
                retry_after_ms: v.field("retry_after_ms")?,
            }),
            "done" => Ok(Response::Done {
                job_id: v.field("job_id")?,
                tenant: v.field("tenant")?,
                elapsed_ns: v.field("elapsed_ns")?,
                iterations: v.field("iterations")?,
                digest: v.field("digest")?,
                report: v
                    .get("report")
                    .cloned()
                    .ok_or_else(|| Error::Json("missing field `report`".to_string()))?,
            }),
            "failed" => Ok(Response::Failed {
                job_id: v.field("job_id")?,
                error: v.field("error")?,
            }),
            "stats" => Ok(Response::Stats(
                v.get("stats")
                    .cloned()
                    .ok_or_else(|| Error::Json("missing field `stats`".to_string()))?,
            )),
            "error" => Ok(Response::Error(v.field("error")?)),
            "shutting_down" => Ok(Response::ShuttingDown),
            other => Err(Error::Json(format!("unknown response type `{other}`"))),
        }
    }
}

/// FNV-1a over a byte slice — the frame digest clients use to verify
/// that two runs of the same job produced identical pixels.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_testkit::ezp_proptest;
    use std::io::Cursor;

    fn round_trip_req(req: &Request) -> Request {
        let mut buf = Vec::new();
        write_frame(&mut buf, &req.to_json()).unwrap();
        match read_frame(&mut Cursor::new(buf)).unwrap() {
            FrameIn::Msg(v) => Request::from_json(&v).unwrap(),
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn simple_requests_round_trip() {
        for req in [Request::Stats, Request::Shutdown, Request::Submit(JobSpec::default())] {
            assert_eq!(round_trip_req(&req), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let samples = [
            Response::Accepted { job_id: 7, tenant: "acme".to_string() },
            Response::Rejected { reason: "queue full".to_string(), retry_after_ms: 50 },
            Response::Done {
                job_id: 7,
                tenant: "acme".to_string(),
                elapsed_ns: 1234,
                iterations: 3,
                digest: format!("{:016x}", fnv1a(b"pixels")),
                report: Json::obj([
                    ("tenant", "acme".to_json()),
                    ("counters", Json::obj([("workers", 1u64.to_json())])),
                    ("spans", Json::Arr(vec![])),
                ]),
            },
            Response::Failed { job_id: 9, error: "unknown kernel".to_string() },
            Response::Stats(Json::obj([("tenants", Json::Arr(vec![]))])),
            Response::Error("bad frame".to_string()),
            Response::ShuttingDown,
        ];
        for resp in samples {
            let mut cloned = Vec::new();
            write_frame(&mut cloned, &resp.to_json()).unwrap();
            let mut moved = Vec::new();
            write_frame(&mut moved, &Json::from(resp.clone())).unwrap();
            assert_eq!(moved, cloned, "moved and cloned encodings of {resp:?}");
            let FrameIn::Msg(v) = read_frame(&mut Cursor::new(moved)).unwrap() else {
                panic!("no frame")
            };
            assert_eq!(Response::from_json(&v).unwrap(), resp);
        }
    }

    #[test]
    fn eof_between_frames_is_clean() {
        assert!(matches!(
            read_frame(&mut Cursor::new(Vec::<u8>::new())).unwrap(),
            FrameIn::Eof
        ));
    }

    #[test]
    fn bad_length_prefixes_are_malformed_not_errors() {
        // oversized
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)).unwrap(),
            FrameIn::Malformed(m) if m.contains("exceeds")
        ));
        // zero-length
        let buf = 0u32.to_le_bytes().to_vec();
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)).unwrap(),
            FrameIn::Malformed(m) if m.contains("zero-length")
        ));
    }

    #[test]
    fn truncated_bodies_are_malformed() {
        // promise 100 bytes, deliver 3
        let mut buf = 100u32.to_le_bytes().to_vec();
        buf.extend_from_slice(b"{\"t");
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)).unwrap(),
            FrameIn::Malformed(m) if m.contains("closed inside")
        ));
        // truncated length prefix itself
        let buf = vec![0x10u8, 0x00];
        assert!(read_frame(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn non_json_bodies_are_malformed() {
        let body = b"not json at all";
        let mut buf = (body.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(body);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)).unwrap(),
            FrameIn::Malformed(m) if m.contains("not JSON")
        ));
        // invalid UTF-8
        let mut buf = 2u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)).unwrap(),
            FrameIn::Malformed(m) if m.contains("UTF-8")
        ));
    }

    #[test]
    fn oversized_outgoing_frames_error_instead_of_panicking() {
        let huge = Json::Str("x".repeat(MAX_FRAME + 1));
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &huge).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "{err}");
        assert!(buf.is_empty(), "nothing written for a rejected frame");
    }

    #[test]
    fn job_spec_validation_bounds_resource_use() {
        assert!(JobSpec::default().validate().is_ok());
        let cases = [
            (JobSpec { size: 0, ..JobSpec::default() }, "size"),
            (JobSpec { size: MAX_JOB_SIZE + 1, ..JobSpec::default() }, "size"),
            (JobSpec { tile: 0, ..JobSpec::default() }, "tile"),
            (JobSpec { tile: 65, size: 64, ..JobSpec::default() }, "tile"),
            (JobSpec { iterations: 0, ..JobSpec::default() }, "iterations"),
            (
                JobSpec { iterations: MAX_JOB_ITERATIONS + 1, ..JobSpec::default() },
                "iterations",
            ),
            (
                JobSpec { stall_us: MAX_JOB_STALL_US + 1, ..JobSpec::default() },
                "stall_us",
            ),
        ];
        for (spec, needle) in cases {
            let why = spec.validate().unwrap_err();
            assert!(why.contains(needle), "expected `{needle}` in `{why}`");
        }
        // the largest conforming spec is accepted
        let max = JobSpec {
            size: MAX_JOB_SIZE,
            tile: MAX_JOB_SIZE,
            iterations: MAX_JOB_ITERATIONS,
            stall_us: MAX_JOB_STALL_US,
            ..JobSpec::default()
        };
        assert!(max.validate().is_ok());
    }

    #[test]
    fn unknown_request_type_is_a_json_error() {
        let v = Json::obj([("type", "dance".to_json())]);
        let err = Request::from_json(&v).unwrap_err().to_string();
        assert!(err.contains("dance"), "{err}");
        assert!(err.contains("submit"), "{err}");
    }

    const KERNELS: [&str; 4] = ["mandel", "blur", "life", "spin"];
    const VARIANTS: [&str; 3] = ["seq", "omp", "omp_tiled"];
    const TENANTS: [Option<&str>; 4] = [None, Some("a"), Some("tenant-1"), Some("émoji✓")];

    ezp_proptest! {
        #![cases(64)]

        fn job_specs_round_trip_through_frames(
            kernel_idx in 0usize..4,
            variant_idx in 0usize..3,
            size in 1usize..4096,
            iterations in 1u32..1000,
            tenant_idx in 0usize..4,
            stall_us in 0u64..1_000_000,
        ) {
            let spec = JobSpec {
                kernel: KERNELS[kernel_idx].to_string(),
                variant: VARIANTS[variant_idx].to_string(),
                size,
                tile: 1 + size % 256,
                iterations,
                threads: 1 + kernel_idx + variant_idx,
                tenant: TENANTS[tenant_idx].map(str::to_string),
                stall_us,
            };
            let req = Request::Submit(spec);
            let mut buf = Vec::new();
            write_frame(&mut buf, &req.to_json()).unwrap();
            let FrameIn::Msg(v) = read_frame(&mut Cursor::new(buf)).unwrap() else {
                panic!("no frame")
            };
            assert_eq!(Request::from_json(&v).unwrap(), req);
        }

        fn arbitrary_byte_prefixes_never_panic_the_reader(
            len in 0usize..64,
            fill in 0u8..=255,
        ) {
            // whatever bytes arrive, read_frame returns Msg/Eof/Malformed
            // or Err — it must never panic or allocate MAX_FRAME+ from a
            // lying prefix
            let buf = vec![fill; len];
            read_frame(&mut Cursor::new(buf)).ok();
        }
    }
}
