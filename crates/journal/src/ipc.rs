//! The worker protocol: length-prefixed JSON frames between a check
//! supervisor and its workers, and the worker-side serve loop.
//!
//! A worker is either a child process talking over its stdio (`worker`,
//! spawned by `--isolate`) or a process connected over TCP (`worker
//! --connect <addr>`, attached to a `--listen` fleet). Both speak one
//! dialect through one serve loop ([`serve`]); pipe and socket differ
//! only in how bytes move, and [`FrameReader`] hides that. Everything
//! rides on the journal's hand-rolled [`Json`] (u64-exact, no floats),
//! reusing the outcome/trace/failure serde of the on-disk records, so the
//! wire format and the journal cannot drift apart.
//!
//! ## Framing
//!
//! Each frame is `LLLLLLLL` (eight lowercase ASCII hex digits, the
//! payload byte length) followed by exactly that many bytes of compact
//! JSON. Resynchronization is never attempted: a malformed frame kills
//! the stream, and the supervisor treats a dead stream as a dead worker.
//! The declared length is checked against [`MAX_FRAME_BYTES`] before any
//! payload buffer is allocated.
//!
//! ## Dialect
//!
//! ```text
//! worker     -> supervisor  {"kind":"hello","proto":2,"worker":NAME}
//! supervisor -> worker      {"kind":"job","job":N,"lease_ms":M|null,
//!                            engine, config, module, properties, constraints}
//! worker     -> supervisor  {"kind":"heartbeat","rss_kb":K|null,"job":N}
//! worker     -> supervisor  {"kind":"result", outcome, counters, cert,"job":N}
//! supervisor -> worker      {"kind":"ack","job":N}
//! ```
//!
//! A worker says hello once, then answers jobs one at a time: heartbeats
//! every `heartbeat_ms` while it solves, then exactly one result, and no
//! new job before the ack. The supervisor closing the stream tells the
//! worker to exit. Every heartbeat and result names the job it answers,
//! so a fleet can recognize and drop a late result for a job it has
//! already given to another worker. An `--isolate` child serves exactly
//! one job; a fleet connection serves many. Budgets (conflicts, wall
//! clock, depth) are enforced inside the worker's solver exactly as
//! in-process; the supervisor enforces the RSS ceiling and heartbeat
//! liveness from the outside, where a wedged or dying worker cannot
//! evade them.
//!
//! ## Transports
//!
//! [`FrameReader`] bounds every read by a deadline, so a stalled pipe or
//! a half-open socket surfaces as [`Polled::Timeout`] ticks that the
//! caller counts against a heartbeat or lease budget, never as a hung
//! thread. A socket is read under `set_read_timeout`. A pipe is read by
//! a pump thread that ends when the pipe closes; a supervisor closes it
//! by killing and reaping the worker it gave up on.
//!
//! ## Fault injection
//!
//! The serve loop honours the `AUTOCC_WORKER_FAULT` environment variable
//! on both transports, so the fault-injection suites can stage worker
//! deaths deterministically: `abort` (die on the first job),
//! `abort_if:<path>` (die once, removing the flag file first), `sigkill`
//! (SIGKILL self), `stall` (stop heartbeating and hang), `rss:<kb>`
//! (report an inflated RSS), `net_drop_result` (write half a result
//! frame, then close the stream), `net_dup_result` (send the result frame
//! twice) and `net_slow:<ms>` (keep heartbeating but delay the result —
//! the lease-expiry shape). Real campaigns never set it.

use crate::json::Json;
use crate::record::{
    counters_json, failure_json, field, hex16, parse_cause, parse_counters, parse_failure,
    parse_trace, str_field, trace_json, u64_field, usize_field,
};
use autocc_bmc::{
    BmcEngine, CancelToken, CertificateStatus, CheckConfig, CheckEngine, CheckSpec, ContentKey,
    EngineOutcome, EngineRun, FailureReason, Falsifier, JobFailure, KInductionEngine,
};
use autocc_hdl::{
    BinOp, Bv, Direction, MemId, Memory, Module, Node, NodeId, OutputPort, Port, RegId, Register,
    Transaction, WritePort,
};
use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Hard ceiling on a single frame's payload (64 MiB). Real miters are
/// well under a megabyte; anything bigger is a corrupt length prefix.
/// Enforced on every transport *before* the payload buffer is allocated,
/// so a corrupt or hostile length prefix cannot trigger a giant
/// allocation.
pub const MAX_FRAME_BYTES: u64 = 64 << 20;

/// Wire-protocol version carried in the hello frame. A supervisor
/// refuses workers speaking a different version rather than guessing at
/// frame semantics. Version 2 dropped the request's `poll` field.
pub const WIRE_PROTO: u64 = 2;

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one frame: an 8-hex-digit byte length, then the compact JSON.
pub fn write_frame(out: &mut dyn Write, payload: &Json) -> std::io::Result<()> {
    let body = payload.to_string_compact();
    write!(out, "{:08x}", body.len())?;
    out.write_all(body.as_bytes())?;
    out.flush()
}

/// Validates an 8-byte length prefix and returns the payload length.
fn frame_len(prefix: &[u8]) -> std::io::Result<usize> {
    let text = std::str::from_utf8(prefix).map_err(|_| bad_data("non-ASCII length prefix"))?;
    let len = u64::from_str_radix(text, 16).map_err(|_| bad_data("non-hex length prefix"))?;
    if len > MAX_FRAME_BYTES {
        return Err(bad_data("frame length exceeds the 64 MiB ceiling"));
    }
    Ok(len as usize)
}

fn parse_payload(bytes: &[u8]) -> std::io::Result<Json> {
    let text = std::str::from_utf8(bytes).map_err(|_| bad_data("frame payload is not UTF-8"))?;
    Json::parse(text).map_err(|e| bad_data(&e))
}

/// Reads one frame from a blocking stream. `Ok(None)` is a clean end of
/// stream (EOF exactly at a frame boundary); a truncated or malformed
/// frame is an error.
pub fn read_frame(input: &mut dyn BufRead) -> std::io::Result<Option<Json>> {
    let mut prefix = [0u8; 8];
    let mut filled = 0;
    while filled < prefix.len() {
        let n = input.read(&mut prefix[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(bad_data("truncated frame length prefix"));
        }
        filled += n;
    }
    let mut body = vec![0u8; frame_len(&prefix)?];
    input.read_exact(&mut body)?;
    parse_payload(&body).map(Some)
}

fn bad_data(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

// ---------------------------------------------------------------------
// Deadline-bounded frame reader
// ---------------------------------------------------------------------

/// Outcome of one bounded read poll on a frame stream.
pub enum Polled {
    /// A complete frame arrived.
    Frame(Json),
    /// The deadline elapsed with no complete frame; partial bytes (if
    /// any) stay buffered for the next poll, so polling is lossless.
    Timeout,
    /// The peer closed the stream cleanly, exactly at a frame boundary.
    /// A close mid-frame is an error instead.
    Eof,
}

/// Where a [`FrameReader`] gets its bytes.
enum Source {
    /// A socket, read under `set_read_timeout`.
    Socket(TcpStream),
    /// A pipe, drained by a pump thread; an empty chunk is end of stream.
    Pipe(mpsc::Receiver<std::io::Result<Vec<u8>>>),
}

/// Incremental frame reader whose every read is bounded by a
/// caller-supplied deadline, over a socket or a pipe.
///
/// Two hardening guarantees, both load-bearing for the supervisors:
///
/// * the declared frame length is validated against [`MAX_FRAME_BYTES`]
///   as soon as the 8-byte prefix is in, **before** any payload buffer
///   is allocated — a corrupt prefix costs a closed stream, not an
///   out-of-memory; and
/// * [`FrameReader::poll_frame`] never blocks past its `wait` argument —
///   a stalled, wedged, or half-open peer surfaces as
///   [`Polled::Timeout`] ticks the caller can count against a lease or
///   heartbeat budget, never as a hung supervisor thread.
pub struct FrameReader {
    source: Source,
    pending: Vec<u8>,
}

impl FrameReader {
    /// Reads frames from a connected socket. Writes go through a separate
    /// clone of the stream.
    pub fn socket(stream: TcpStream) -> FrameReader {
        FrameReader {
            source: Source::Socket(stream),
            pending: Vec::new(),
        }
    }

    /// Reads frames from a blocking byte stream such as a child's stdout
    /// or the worker's own stdin. A pump thread forwards what it reads
    /// and ends at end of stream, on a read error, or once the reader is
    /// dropped and the next chunk has nowhere to go. It is detached, not
    /// joined: it may sit in `read` on a pipe only the peer can close,
    /// and a worker must be able to exit while its stdin is still open.
    pub fn pipe(mut input: impl Read + Send + 'static) -> FrameReader {
        let (chunks, source) = mpsc::sync_channel(4);
        std::thread::spawn(move || {
            let mut buf = vec![0u8; 64 << 10];
            loop {
                let chunk = match input.read(&mut buf) {
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    read => read.map(|n| buf[..n].to_vec()),
                };
                let last = !matches!(&chunk, Ok(bytes) if !bytes.is_empty());
                if chunks.send(chunk).is_err() || last {
                    return;
                }
            }
        });
        FrameReader {
            source: Source::Pipe(source),
            pending: Vec::new(),
        }
    }

    /// Tries to parse one complete frame out of the buffered bytes.
    fn try_extract(&mut self) -> std::io::Result<Option<Json>> {
        if self.pending.len() < 8 {
            return Ok(None);
        }
        let total = 8 + frame_len(&self.pending[..8])?;
        if self.pending.len() < total {
            return Ok(None);
        }
        let json = parse_payload(&self.pending[8..total])?;
        self.pending.drain(..total);
        Ok(Some(json))
    }

    /// Appends what arrives within `wait` to the buffer: `Some(0)` at end
    /// of stream, `None` when the wait ran out.
    fn fill(&mut self, wait: Duration) -> std::io::Result<Option<usize>> {
        match &mut self.source {
            Source::Socket(stream) => {
                // set_read_timeout(0) would mean "block forever"; the
                // max(1ms) costs at most one extra millisecond.
                stream.set_read_timeout(Some(wait.max(Duration::from_millis(1))))?;
                let mut buf = [0u8; 4096];
                loop {
                    match stream.read(&mut buf) {
                        Ok(n) => {
                            self.pending.extend_from_slice(&buf[..n]);
                            return Ok(Some(n));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            return Ok(None);
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            Source::Pipe(chunks) => match chunks.recv_timeout(wait) {
                Ok(chunk) => {
                    let chunk = chunk?;
                    self.pending.extend_from_slice(&chunk);
                    Ok(Some(chunk.len()))
                }
                Err(RecvTimeoutError::Timeout) => Ok(None),
                Err(RecvTimeoutError::Disconnected) => Ok(Some(0)),
            },
        }
    }

    /// Waits up to `wait` for one complete frame. Partial frames carry
    /// over between polls; a peer close mid-frame is an error.
    pub fn poll_frame(&mut self, wait: Duration) -> std::io::Result<Polled> {
        let deadline = Instant::now() + wait;
        loop {
            if let Some(frame) = self.try_extract()? {
                return Ok(Polled::Frame(frame));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(Polled::Timeout);
            }
            match self.fill(left)? {
                None => return Ok(Polled::Timeout),
                Some(0) if self.pending.is_empty() => return Ok(Polled::Eof),
                Some(0) => return Err(bad_data("stream closed mid-frame")),
                Some(_) => {}
            }
        }
    }
}

/// Prepares a fleet connection for the dialect: no Nagle delay, a
/// bounded write timeout, and a reader over one handle with the other
/// kept for writes.
pub fn split_connection(stream: TcpStream) -> std::io::Result<(FrameReader, TcpStream)> {
    let _ = stream.set_nodelay(true);
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let writer = stream.try_clone()?;
    Ok((FrameReader::socket(stream), writer))
}

// ---------------------------------------------------------------------
// Reconnect backoff
// ---------------------------------------------------------------------

/// Exponential backoff with bounded, deterministic jitter for worker
/// reconnects.
///
/// The delay doubles from `base` up to `max`; each delay then gains a
/// jitter of up to 25%, derived by hashing the process id and attempt
/// counter (FNV-1a) so a fleet of workers restarted together does not
/// reconnect in lockstep, while any single worker's schedule stays
/// reproducible. No randomness source is consulted.
#[derive(Clone, Debug)]
pub struct Backoff {
    base: Duration,
    max: Duration,
    attempt: u32,
}

impl Backoff {
    /// A backoff schedule from `base` doubling up to `max`.
    pub fn new(base: Duration, max: Duration) -> Backoff {
        Backoff {
            base: base.max(Duration::from_millis(1)),
            max: max.max(base),
            attempt: 0,
        }
    }

    /// Number of delays handed out since the last [`Backoff::reset`].
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Returns the next delay and advances the schedule.
    pub fn next_delay(&mut self) -> Duration {
        let shift = self.attempt.min(20);
        self.attempt = self.attempt.saturating_add(1);
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(shift).unwrap_or(u32::MAX))
            .min(self.max);
        // Bounded jitter: up to a quarter of the current delay, keyed on
        // (pid, attempt) so concurrent workers spread out.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in std::process::id()
            .to_le_bytes()
            .into_iter()
            .chain(self.attempt.to_le_bytes())
        {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let quarter = (exp / 4).as_millis() as u64;
        let jitter = if quarter == 0 { 0 } else { h % quarter };
        (exp + Duration::from_millis(jitter)).min(self.max)
    }

    /// Restarts the schedule from `base` (after a successful connection).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

// ---------------------------------------------------------------------
// Module wire form
// ---------------------------------------------------------------------

fn bv_json(v: Bv) -> Json {
    Json::Arr(vec![Json::Num(u64::from(v.width())), Json::Num(v.value())])
}

fn parse_bv(v: &Json) -> Result<Bv, String> {
    let a = v.as_arr().ok_or("bv is not an array")?;
    match a {
        [w, val] => {
            let w = w.as_u64().ok_or("bv width is not a number")?;
            let val = val.as_u64().ok_or("bv value is not a number")?;
            if !(1..=64).contains(&w) {
                return Err(format!("bv width {w} out of range"));
            }
            Ok(Bv::new(w as u32, val))
        }
        _ => Err("bv is not a [width, value] pair".to_string()),
    }
}

fn binop_str(op: BinOp) -> &'static str {
    match op {
        BinOp::And => "and",
        BinOp::Or => "or",
        BinOp::Xor => "xor",
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Eq => "eq",
        BinOp::Ult => "ult",
        BinOp::Shl => "shl",
        BinOp::Shr => "shr",
    }
}

fn parse_binop(s: &str) -> Option<BinOp> {
    Some(match s {
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "eq" => BinOp::Eq,
        "ult" => BinOp::Ult,
        "shl" => BinOp::Shl,
        "shr" => BinOp::Shr,
        _ => return None,
    })
}

fn id(n: NodeId) -> Json {
    Json::Num(n.index() as u64)
}

fn node_json(node: &Node) -> Json {
    let tag = |t: &str| Json::Str(t.to_string());
    let n = |v: usize| Json::Num(v as u64);
    Json::Arr(match node {
        Node::Input { port } => vec![tag("in"), n(*port)],
        Node::Const(v) => vec![tag("const"), bv_json(*v)],
        Node::Not(a) => vec![tag("not"), id(*a)],
        Node::Binary { op, a, b } => vec![tag(binop_str(*op)), id(*a), id(*b)],
        Node::Mux { sel, t, e } => vec![tag("mux"), id(*sel), id(*t), id(*e)],
        Node::Slice { a, hi, lo } => vec![
            tag("slice"),
            id(*a),
            Json::Num(u64::from(*hi)),
            Json::Num(u64::from(*lo)),
        ],
        Node::Concat { hi, lo } => vec![tag("cat"), id(*hi), id(*lo)],
        Node::Zext { a, width } => vec![tag("zext"), id(*a), Json::Num(u64::from(*width))],
        Node::Sext { a, width } => vec![tag("sext"), id(*a), Json::Num(u64::from(*width))],
        Node::ReduceOr(a) => vec![tag("ror"), id(*a)],
        Node::ReduceAnd(a) => vec![tag("rand"), id(*a)],
        Node::ReduceXor(a) => vec![tag("rxor"), id(*a)],
        Node::RegOut(r) => vec![tag("reg"), n(r.index())],
        Node::MemRead { mem, addr } => vec![tag("mem"), n(mem.index()), id(*addr)],
    })
}

fn arr_num(a: &[Json], i: usize, what: &str) -> Result<u64, String> {
    a.get(i)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{what}: operand {i} is not a number"))
}

fn arr_id(a: &[Json], i: usize, what: &str) -> Result<NodeId, String> {
    Ok(NodeId::from_index(arr_num(a, i, what)? as usize))
}

fn parse_node(v: &Json) -> Result<Node, String> {
    let a = v.as_arr().ok_or("node is not an array")?;
    let tag = a
        .first()
        .and_then(Json::as_str)
        .ok_or("node has no string tag")?;
    if let Some(op) = parse_binop(tag) {
        return Ok(Node::Binary {
            op,
            a: arr_id(a, 1, tag)?,
            b: arr_id(a, 2, tag)?,
        });
    }
    Ok(match tag {
        "in" => Node::Input {
            port: arr_num(a, 1, tag)? as usize,
        },
        "const" => Node::Const(parse_bv(a.get(1).ok_or("const without value")?)?),
        "not" => Node::Not(arr_id(a, 1, tag)?),
        "mux" => Node::Mux {
            sel: arr_id(a, 1, tag)?,
            t: arr_id(a, 2, tag)?,
            e: arr_id(a, 3, tag)?,
        },
        "slice" => Node::Slice {
            a: arr_id(a, 1, tag)?,
            hi: arr_num(a, 2, tag)? as u32,
            lo: arr_num(a, 3, tag)? as u32,
        },
        "cat" => Node::Concat {
            hi: arr_id(a, 1, tag)?,
            lo: arr_id(a, 2, tag)?,
        },
        "zext" => Node::Zext {
            a: arr_id(a, 1, tag)?,
            width: arr_num(a, 2, tag)? as u32,
        },
        "sext" => Node::Sext {
            a: arr_id(a, 1, tag)?,
            width: arr_num(a, 2, tag)? as u32,
        },
        "ror" => Node::ReduceOr(arr_id(a, 1, tag)?),
        "rand" => Node::ReduceAnd(arr_id(a, 1, tag)?),
        "rxor" => Node::ReduceXor(arr_id(a, 1, tag)?),
        "reg" => Node::RegOut(RegId::from_index(arr_num(a, 1, tag)? as usize)),
        "mem" => Node::MemRead {
            mem: MemId::from_index(arr_num(a, 1, tag)? as usize),
            addr: arr_id(a, 2, tag)?,
        },
        other => return Err(format!("unknown node tag `{other}`")),
    })
}

/// Serializes a module for the wire. Node widths are *not* shipped: the
/// receiver recomputes them via [`Module::from_parts`], so a corrupted
/// width table cannot smuggle an ill-typed netlist across the boundary.
pub fn module_json(m: &Module) -> Json {
    Json::Obj(vec![
        ("name".to_string(), Json::Str(m.name().to_string())),
        (
            "nodes".to_string(),
            Json::Arr(m.nodes().iter().map(node_json).collect()),
        ),
        (
            "inputs".to_string(),
            Json::Arr(
                m.inputs()
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("name".to_string(), Json::Str(p.name.clone())),
                            ("width".to_string(), Json::Num(u64::from(p.width))),
                            ("common".to_string(), Json::Bool(p.common)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "outputs".to_string(),
            Json::Arr(
                m.outputs()
                    .iter()
                    .map(|o| Json::Arr(vec![Json::Str(o.name.clone()), id(o.node)]))
                    .collect(),
            ),
        ),
        (
            "regs".to_string(),
            Json::Arr(
                m.regs()
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("name".to_string(), Json::Str(r.name.clone())),
                            ("width".to_string(), Json::Num(u64::from(r.width))),
                            ("init".to_string(), bv_json(r.init)),
                            ("next".to_string(), r.next.map_or(Json::Null, id)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "mems".to_string(),
            Json::Arr(
                m.mems()
                    .iter()
                    .map(|mem| {
                        Json::Obj(vec![
                            ("name".to_string(), Json::Str(mem.name.clone())),
                            ("depth".to_string(), Json::Num(mem.depth as u64)),
                            ("width".to_string(), Json::Num(u64::from(mem.width))),
                            (
                                "init".to_string(),
                                Json::Arr(mem.init.iter().map(|v| bv_json(*v)).collect()),
                            ),
                            (
                                "writes".to_string(),
                                Json::Arr(
                                    mem.writes
                                        .iter()
                                        .map(|w| Json::Arr(vec![id(w.en), id(w.addr), id(w.data)]))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "transactions".to_string(),
            Json::Arr(
                m.transactions()
                    .iter()
                    .map(|t| {
                        Json::Obj(vec![
                            ("name".to_string(), Json::Str(t.name.clone())),
                            (
                                "dir".to_string(),
                                Json::Str(
                                    match t.direction {
                                        Direction::Input => "in",
                                        Direction::Output => "out",
                                    }
                                    .to_string(),
                                ),
                            ),
                            ("valid".to_string(), Json::Str(t.valid.clone())),
                            (
                                "payload".to_string(),
                                Json::Arr(t.payload.iter().map(|p| Json::Str(p.clone())).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Deserializes [`module_json`], recomputing and re-validating widths.
pub fn parse_module(v: &Json) -> Result<Module, String> {
    let list = |key: &str| -> Result<&[Json], String> {
        field(v, key)?
            .as_arr()
            .ok_or_else(|| format!("module {key} is not an array"))
    };
    let nodes = list("nodes")?
        .iter()
        .map(parse_node)
        .collect::<Result<Vec<_>, _>>()?;
    let inputs = list("inputs")?
        .iter()
        .map(|p| {
            Ok(Port {
                name: str_field(p, "name")?,
                width: u64_field(p, "width")? as u32,
                common: matches!(field(p, "common")?, Json::Bool(true)),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let outputs = list("outputs")?
        .iter()
        .map(|o| match o.as_arr() {
            Some([name, node]) => Ok(OutputPort {
                name: name
                    .as_str()
                    .ok_or("output name is not a string")?
                    .to_string(),
                node: NodeId::from_index(
                    node.as_u64().ok_or("output node is not a number")? as usize
                ),
            }),
            _ => Err("output is not a [name, node] pair".to_string()),
        })
        .collect::<Result<Vec<_>, String>>()?;
    let regs = list("regs")?
        .iter()
        .map(|r| {
            let next = match field(r, "next")? {
                Json::Null => None,
                n => Some(NodeId::from_index(
                    n.as_u64().ok_or("register next is not a number")? as usize,
                )),
            };
            Ok(Register {
                name: str_field(r, "name")?,
                width: u64_field(r, "width")? as u32,
                init: parse_bv(field(r, "init")?)?,
                next,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mems = list("mems")?
        .iter()
        .map(|m| {
            let init = field(m, "init")?
                .as_arr()
                .ok_or("memory init is not an array")?
                .iter()
                .map(parse_bv)
                .collect::<Result<Vec<_>, _>>()?;
            let writes = field(m, "writes")?
                .as_arr()
                .ok_or("memory writes is not an array")?
                .iter()
                .map(|w| {
                    let a = w.as_arr().ok_or("write port is not an array")?;
                    Ok(WritePort {
                        en: arr_id(a, 0, "write")?,
                        addr: arr_id(a, 1, "write")?,
                        data: arr_id(a, 2, "write")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Memory {
                name: str_field(m, "name")?,
                depth: usize_field(m, "depth")?,
                width: u64_field(m, "width")? as u32,
                init,
                writes,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let transactions = list("transactions")?
        .iter()
        .map(|t| {
            let dir = str_field(t, "dir")?;
            Ok(Transaction {
                name: str_field(t, "name")?,
                direction: match dir.as_str() {
                    "in" => Direction::Input,
                    "out" => Direction::Output,
                    other => return Err(format!("unknown transaction direction `{other}`")),
                },
                valid: str_field(t, "valid")?,
                payload: field(t, "payload")?
                    .as_arr()
                    .ok_or("transaction payload is not an array")?
                    .iter()
                    .map(|p| {
                        p.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| "payload entry is not a string".to_string())
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Module::from_parts(
        str_field(v, "name")?,
        nodes,
        inputs,
        outputs,
        regs,
        mems,
        transactions,
    )
}

// ---------------------------------------------------------------------
// Request / response frames
// ---------------------------------------------------------------------

/// A parsed worker request: which engine to run over which spec.
pub struct WireRequest {
    /// Wire engine selector (see [`wire_engine`]).
    pub engine: String,
    /// Budgets and switches for the solve (telemetry off, jobs 1).
    pub config: CheckConfig,
    /// The reconstructed miter.
    pub module: Module,
    /// `(name, node)` properties, indices into the module's node table.
    pub properties: Vec<(String, NodeId)>,
    /// Constraint nodes.
    pub constraints: Vec<NodeId>,
}

/// Builds the engine named by a wire request: `bmc`, `k-induction`, or
/// `falsifier-bmc` (a [`Falsifier`]-wrapped [`BmcEngine`], the proof
/// race's counterexample hunter).
pub fn wire_engine(name: &str) -> Option<Box<dyn CheckEngine + Send + Sync>> {
    Some(match name {
        "bmc" => Box::new(BmcEngine),
        "k-induction" => Box::new(KInductionEngine),
        "falsifier-bmc" => Box::new(Falsifier(BmcEngine)),
        _ => return None,
    })
}

/// Serializes a check request frame.
pub fn request_json(
    engine: &str,
    module: &Module,
    properties: &[(String, NodeId)],
    constraints: &[NodeId],
    config: &CheckConfig,
) -> Json {
    Json::Obj(vec![
        ("kind".to_string(), Json::Str("request".to_string())),
        ("engine".to_string(), Json::Str(engine.to_string())),
        (
            "config".to_string(),
            Json::Obj(vec![
                ("depth".to_string(), Json::Num(config.max_depth as u64)),
                (
                    "conflicts".to_string(),
                    config.conflict_budget.map_or(Json::Null, Json::Num),
                ),
                (
                    "time_us".to_string(),
                    // Saturates: a wrapped budget would hand the worker a
                    // near-zero deadline.
                    config.time_budget.map_or(Json::Null, |d| {
                        Json::Num(u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
                    }),
                ),
                ("slice".to_string(), Json::Bool(config.slice)),
                ("heartbeat_ms".to_string(), Json::Num(config.heartbeat_ms)),
                ("certify".to_string(), Json::Bool(config.certify)),
            ]),
        ),
        ("module".to_string(), module_json(module)),
        (
            "properties".to_string(),
            Json::Arr(
                properties
                    .iter()
                    .map(|(name, p)| Json::Arr(vec![Json::Str(name.clone()), id(*p)]))
                    .collect(),
            ),
        ),
        (
            "constraints".to_string(),
            Json::Arr(constraints.iter().map(|c| id(*c)).collect()),
        ),
    ])
}

/// Parses a request frame back into its parts. The returned config has
/// telemetry off and `jobs = 1`: the worker is exactly one attempt.
pub fn parse_request(v: &Json) -> Result<WireRequest, String> {
    if str_field(v, "kind")? != "request" {
        return Err("not a request frame".to_string());
    }
    request_fields(v)
}

/// Reads the request fields of a `request` or `job` frame.
fn request_fields(v: &Json) -> Result<WireRequest, String> {
    let c = field(v, "config")?;
    let opt_num = |key: &str| -> Result<Option<u64>, String> {
        match field(c, key)? {
            Json::Null => Ok(None),
            n => n
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("config {key} is neither null nor a number")),
        }
    };
    let config = CheckConfig::default()
        .depth(usize_field(c, "depth")?)
        .conflicts(opt_num("conflicts")?)
        .slice(matches!(field(c, "slice")?, Json::Bool(true)))
        .heartbeat_ms(u64_field(c, "heartbeat_ms")?)
        .certify(matches!(field(c, "certify")?, Json::Bool(true)))
        .jobs(1)
        .retries(0);
    let config = match opt_num("time_us")? {
        Some(us) => config.timeout(Duration::from_micros(us)),
        None => config.no_timeout(),
    };
    let module = parse_module(field(v, "module")?)?;
    let properties = field(v, "properties")?
        .as_arr()
        .ok_or("properties is not an array")?
        .iter()
        .map(|p| match p.as_arr() {
            Some([name, node]) => Ok((
                name.as_str()
                    .ok_or("property name is not a string")?
                    .to_string(),
                NodeId::from_index(node.as_u64().ok_or("property node is not a number")? as usize),
            )),
            _ => Err("property is not a [name, node] pair".to_string()),
        })
        .collect::<Result<Vec<_>, String>>()?;
    let constraints = field(v, "constraints")?
        .as_arr()
        .ok_or("constraints is not an array")?
        .iter()
        .map(|c| {
            c.as_u64()
                .map(|n| NodeId::from_index(n as usize))
                .ok_or_else(|| "constraint is not a number".to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(WireRequest {
        engine: str_field(v, "engine")?,
        config,
        module,
        properties,
        constraints,
    })
}

fn outcome_json(outcome: &EngineOutcome) -> Json {
    let kind = |k: &str| ("kind".to_string(), Json::Str(k.to_string()));
    match outcome {
        EngineOutcome::Cex(cex) => Json::Obj(vec![
            kind("cex"),
            ("property".to_string(), Json::Str(cex.property.clone())),
            ("depth".to_string(), Json::Num(cex.depth as u64)),
            (
                "trace".to_string(),
                trace_json(&cex.trace, cex.trace.num_ports()),
            ),
        ]),
        EngineOutcome::BoundReached { depth } => Json::Obj(vec![
            kind("bound"),
            ("depth".to_string(), Json::Num(*depth as u64)),
        ]),
        EngineOutcome::Proved { induction_depth } => Json::Obj(vec![
            kind("proved"),
            ("k".to_string(), Json::Num(*induction_depth as u64)),
        ]),
        EngineOutcome::Exhausted { depth } => Json::Obj(vec![
            kind("exhausted"),
            ("depth".to_string(), Json::Num(*depth as u64)),
        ]),
        EngineOutcome::Unknown { depth, cause } => Json::Obj(vec![
            kind("unknown"),
            ("depth".to_string(), Json::Num(*depth as u64)),
            (
                "cause".to_string(),
                Json::Str(crate::record::cause_str(*cause).to_string()),
            ),
        ]),
        EngineOutcome::Failed(f) => Json::Obj(vec![
            kind("failed"),
            ("failure".to_string(), failure_json(f)),
        ]),
    }
}

fn parse_engine_outcome(v: &Json) -> Result<EngineOutcome, String> {
    Ok(match str_field(v, "kind")?.as_str() {
        "cex" => EngineOutcome::Cex(autocc_bmc::Cex {
            property: str_field(v, "property")?,
            depth: usize_field(v, "depth")?,
            trace: parse_trace(field(v, "trace")?)?,
        }),
        "bound" => EngineOutcome::BoundReached {
            depth: usize_field(v, "depth")?,
        },
        "proved" => EngineOutcome::Proved {
            induction_depth: usize_field(v, "k")?,
        },
        "exhausted" => EngineOutcome::Exhausted {
            depth: usize_field(v, "depth")?,
        },
        "unknown" => {
            let cause = str_field(v, "cause")?;
            EngineOutcome::Unknown {
                depth: usize_field(v, "depth")?,
                cause: parse_cause(&cause).ok_or_else(|| format!("unknown cause `{cause}`"))?,
            }
        }
        "failed" => EngineOutcome::Failed(parse_failure(field(v, "failure")?)?),
        other => return Err(format!("unknown outcome kind `{other}`")),
    })
}

// ---------------------------------------------------------------------
// The dialect: hello / job / heartbeat / result / ack
// ---------------------------------------------------------------------

fn kind(k: &str) -> (String, Json) {
    ("kind".to_string(), Json::Str(k.to_string()))
}

fn job_field(job: u64) -> (String, Json) {
    ("job".to_string(), Json::Num(job))
}

/// Serializes the frame a worker opens every connection with.
fn hello_json(worker: &str) -> Json {
    Json::Obj(vec![
        kind("hello"),
        ("proto".to_string(), Json::Num(WIRE_PROTO)),
        ("worker".to_string(), Json::Str(worker.to_string())),
    ])
}

/// Wraps a [`request_json`] payload as a dispatched job: the request
/// fields plus a job id and the lease (milliseconds) the supervisor
/// grants, `None` for a worker that owns its job outright.
pub fn job_json(job: u64, lease_ms: Option<u64>, request: Json) -> Json {
    let mut fields = vec![
        kind("job"),
        job_field(job),
        (
            "lease_ms".to_string(),
            lease_ms.map_or(Json::Null, Json::Num),
        ),
    ];
    if let Json::Obj(request_fields) = request {
        fields.extend(request_fields.into_iter().filter(|(k, _)| k != "kind"));
    }
    Json::Obj(fields)
}

/// Parses a job frame into its id, lease, and embedded request.
fn parse_job(v: &Json) -> Result<(u64, Option<u64>, WireRequest), String> {
    if str_field(v, "kind")? != "job" {
        return Err("not a job frame".to_string());
    }
    let lease_ms = match field(v, "lease_ms")? {
        Json::Null => None,
        n => Some(n.as_u64().ok_or("lease_ms is neither null nor a number")?),
    };
    Ok((u64_field(v, "job")?, lease_ms, request_fields(v)?))
}

/// Serializes a heartbeat for `job`. `rss_kb: None` (RSS unmeasurable
/// on this platform) crosses the wire as `null`.
fn heartbeat_json(job: u64, rss_kb: Option<u64>) -> Json {
    Json::Obj(vec![
        kind("heartbeat"),
        ("rss_kb".to_string(), rss_kb.map_or(Json::Null, Json::Num)),
        job_field(job),
    ])
}

/// Serializes the result of `job`. Only the certificate *status and
/// hash* cross the process boundary — the proof transcript itself stays
/// inside the worker, where it was already checked.
fn result_json(job: u64, run: &EngineRun) -> Json {
    Json::Obj(vec![
        kind("result"),
        ("outcome".to_string(), outcome_json(&run.outcome)),
        ("counters".to_string(), counters_json(&run.counters)),
        (
            "cert".to_string(),
            match run.certificate {
                CertificateStatus::Uncertified => Json::Null,
                CertificateStatus::Certified { hash } => hex16(hash),
            },
        ),
        job_field(job),
    ])
}

/// Serializes the supervisor's acknowledgement of a result frame.
pub fn ack_json(job: u64) -> Json {
    Json::Obj(vec![kind("ack"), job_field(job)])
}

/// Parses an ack frame, returning the acknowledged job id.
fn parse_ack(v: &Json) -> Result<u64, String> {
    if str_field(v, "kind")? != "ack" {
        return Err("not an ack frame".to_string());
    }
    u64_field(v, "job")
}

/// One frame a supervisor can receive from a worker.
pub enum WorkerMessage {
    /// Registration: the first frame on every connection.
    Hello {
        /// The worker's self-reported name.
        worker: String,
    },
    /// Liveness for the named job.
    Heartbeat {
        /// The job this heartbeat answers.
        job: u64,
        /// Resident set size in KiB; `None` where the platform offers no
        /// `/proc`-style RSS reading. A supervisor receiving `None` keeps
        /// the liveness signal but skips RSS enforcement — an
        /// unmeasurable worker is degraded, not dead.
        rss_kb: Option<u64>,
    },
    /// The final answer for the named job.
    Result {
        /// The job this result answers.
        job: u64,
        /// The engine's verdict.
        run: EngineRun,
    },
}

/// Parses a worker-to-supervisor frame. Job tags are mandatory: an
/// untagged heartbeat or result is a protocol violation, because
/// at-most-once accounting needs to know which job a frame answers. A
/// hello in another protocol version is refused outright.
pub fn parse_worker_message(v: &Json) -> Result<WorkerMessage, String> {
    match str_field(v, "kind")?.as_str() {
        "hello" => {
            let proto = u64_field(v, "proto")?;
            if proto != WIRE_PROTO {
                return Err(format!(
                    "worker speaks wire protocol {proto}, supervisor speaks {WIRE_PROTO}"
                ));
            }
            Ok(WorkerMessage::Hello {
                worker: str_field(v, "worker")?,
            })
        }
        "heartbeat" => Ok(WorkerMessage::Heartbeat {
            job: u64_field(v, "job")?,
            rss_kb: match field(v, "rss_kb")? {
                Json::Null => None,
                n => Some(n.as_u64().ok_or("rss_kb is neither null nor a number")?),
            },
        }),
        "result" => Ok(WorkerMessage::Result {
            job: u64_field(v, "job")?,
            run: EngineRun {
                outcome: parse_engine_outcome(field(v, "outcome")?)?,
                counters: parse_counters(field(v, "counters")?)?,
                certificate: parse_certificate(field(v, "cert")?)?,
            },
        }),
        other => Err(format!("unknown worker frame kind `{other}`")),
    }
}

fn parse_certificate(v: &Json) -> Result<CertificateStatus, String> {
    match v {
        Json::Null => Ok(CertificateStatus::Uncertified),
        other => other
            .as_str()
            .and_then(ContentKey::parse_hex)
            .map(|k| CertificateStatus::Certified { hash: k.0 })
            .ok_or_else(|| "cert is neither null nor a 16-hex-digit hash".to_string()),
    }
}

// ---------------------------------------------------------------------
// Worker runtime
// ---------------------------------------------------------------------

/// The current process's resident set size in KiB, from
/// `/proc/self/status` (`VmRSS`). Returns `None` on platforms without a
/// readable `/proc` — the worker then heartbeats without an RSS reading
/// (liveness intact, memory enforcement gracefully skipped) instead of
/// failing.
fn current_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Applies the staged `AUTOCC_WORKER_FAULT` death, if any, once a job
/// has arrived. Returns the RSS override for `rss:<kb>`; diverges (never
/// returns) for the death- and stall-shaped faults. The `net_*` faults
/// shape the result frame and are handled by [`serve`].
fn apply_fault(fault: Option<&str>) -> Option<u64> {
    match fault {
        Some("abort") => std::process::abort(),
        Some("sigkill") => {
            let _ = std::process::Command::new("kill")
                .args(["-9", &std::process::id().to_string()])
                .status();
            // SIGKILL is not maskable; give delivery a moment.
            loop {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        // A wedged worker: alive, silent, never answering. The
        // supervisor's heartbeat-stall clock must reap it.
        Some("stall") => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
        Some(spec) if spec.starts_with("abort_if:") => {
            let path = &spec["abort_if:".len()..];
            if std::fs::remove_file(path).is_ok() {
                std::process::abort();
            }
            None
        }
        Some(spec) => spec.strip_prefix("rss:").and_then(|kb| kb.parse().ok()),
        None => None,
    }
}

/// Writes one frame through the shared output.
fn send<W: Write>(output: &Mutex<W>, frame: &Json) -> Result<(), String> {
    let mut out = output.lock().map_err(|_| "output poisoned".to_string())?;
    write_frame(&mut *out, frame).map_err(|e| format!("writing frame: {e}"))
}

/// Runs job `job` to completion while a sibling thread heartbeats on
/// `output` every `heartbeat_ms`. `result_delay` is the `net_slow`
/// fault's hook. Panics inside the engine come back as `FAILED (panic)`
/// results, exactly as the in-process scheduler would classify them.
fn solve_request<W: Write + Send + 'static>(
    req: &WireRequest,
    output: &Arc<Mutex<W>>,
    job: u64,
    rss_override: Option<u64>,
    result_delay: Option<Duration>,
) -> Result<EngineRun, String> {
    let engine =
        wire_engine(&req.engine).ok_or_else(|| format!("unknown wire engine `{}`", req.engine))?;
    // Dropping `solved` wakes the heartbeat thread at once, so the
    // result frame never waits out a heartbeat period.
    let (solved, solving) = mpsc::channel::<()>();
    let heartbeat = {
        let output = Arc::clone(output);
        let period = Duration::from_millis(req.config.heartbeat_ms);
        std::thread::spawn(move || loop {
            let frame = heartbeat_json(job, rss_override.or_else(current_rss_kb));
            // A failed write means the supervisor is gone; nobody is
            // left to reassure.
            if send(&output, &frame).is_err()
                || solving.recv_timeout(period) != Err(RecvTimeoutError::Timeout)
            {
                return;
            }
        })
    };

    let spec = CheckSpec {
        module: &req.module,
        properties: req.properties.clone(),
        constraints: req.constraints.clone(),
        blast: None,
    };
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.check(&spec, &req.config, &CancelToken::new())
    }))
    .unwrap_or_else(|payload| {
        let detail = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        EngineRun::from(EngineOutcome::Failed(JobFailure {
            engine: req.engine.clone(),
            property: None,
            depth: 0,
            reason: FailureReason::Panic,
            detail,
            attempts: 1,
        }))
    });
    // `net_slow`: hold the answer while the heartbeats keep flowing — a
    // healthy-but-slow worker, the shape that expires a lease.
    if let Some(delay) = result_delay {
        std::thread::sleep(delay);
    }
    drop(solved);
    let _ = heartbeat.join();
    Ok(run)
}

/// How long a worker waits for the ack of a result before treating the
/// supervisor as gone.
const ACK_DEADLINE: Duration = Duration::from_secs(30);

/// The worker serve loop, on either transport: says hello, then answers
/// jobs read from `reader` on `output` until the supervisor closes the
/// stream (clean shutdown, `Ok` with the number of jobs answered) or
/// something breaks (`Err`). Exit code 0 is right even for FAILED
/// outcomes — those are *results*; an `Err` means the worker itself
/// broke, which the supervisor classifies as a dead worker.
pub fn serve<W: Write + Send + 'static>(mut reader: FrameReader, output: W) -> Result<u64, String> {
    let output = Arc::new(Mutex::new(output));
    send(&output, &hello_json(&format!("pid-{}", std::process::id())))?;
    let fault = std::env::var("AUTOCC_WORKER_FAULT").ok();
    let mut served = 0u64;
    loop {
        let frame = match reader.poll_frame(Duration::from_secs(1)) {
            Ok(Polled::Frame(frame)) => frame,
            Ok(Polled::Timeout) => continue, // idle between jobs
            Ok(Polled::Eof) => return Ok(served), // supervisor done with us
            Err(e) => return Err(format!("reading job: {e}")),
        };
        let (job, _lease_ms, req) = parse_job(&frame)?;
        let rss_override = apply_fault(fault.as_deref());
        let result_delay = fault
            .as_deref()
            .and_then(|spec| spec.strip_prefix("net_slow:"))
            .and_then(|ms| ms.parse().ok())
            .map(Duration::from_millis);
        let run = solve_request(&req, &output, job, rss_override, result_delay)?;
        let result = result_json(job, &run);
        match fault.as_deref() {
            Some("net_drop_result") => {
                // Mid-frame drop: declare the full length, ship half the
                // payload, close. The supervisor must classify this as a
                // dead worker.
                let payload = result.to_string_compact();
                if let Ok(mut out) = output.lock() {
                    let _ = write!(out, "{:08x}", payload.len());
                    let _ = out.write_all(&payload.as_bytes()[..payload.len() / 2]);
                    let _ = out.flush();
                }
                return Err("injected mid-frame drop".to_string());
            }
            // Duplicate result: the supervisor must accept exactly one
            // copy and count the other as a duplicate.
            Some("net_dup_result") => {
                send(&output, &result)?;
                send(&output, &result)?;
            }
            _ => send(&output, &result)?,
        }
        served += 1;
        // Take no other job before the ack: it confirms the supervisor
        // accounted the result (or, via EOF, that it is done with us).
        match reader.poll_frame(ACK_DEADLINE) {
            Ok(Polled::Frame(frame)) => {
                let acked = parse_ack(&frame)?;
                if acked != job {
                    return Err(format!("ack for job {acked}, expected {job}"));
                }
            }
            Ok(Polled::Timeout) => return Err("ack deadline exceeded".to_string()),
            Ok(Polled::Eof) => return Ok(served),
            Err(e) => return Err(format!("reading ack: {e}")),
        }
    }
}

/// Configuration for a `worker --connect <addr>` process.
#[derive(Debug, Clone)]
pub struct RemoteWorkerOptions {
    /// The fleet supervisor's `host:port`.
    pub addr: String,
    /// First reconnect delay.
    pub backoff_base_ms: u64,
    /// Reconnect delay ceiling.
    pub backoff_max_ms: u64,
    /// Give up (clean exit) after this many consecutive failed connect
    /// attempts; `None` retries forever.
    pub max_connect_attempts: Option<u64>,
}

impl Default for RemoteWorkerOptions {
    fn default() -> RemoteWorkerOptions {
        RemoteWorkerOptions {
            addr: String::new(),
            backoff_base_ms: 200,
            backoff_max_ms: 10_000,
            max_connect_attempts: None,
        }
    }
}

/// The connect/serve/backoff loop of a `worker --connect` process.
/// Returns the jobs served once the supervisor closes the connection
/// cleanly, or an error once `max_connect_attempts` consecutive
/// connection failures pile up.
pub fn run_remote_worker(opts: &RemoteWorkerOptions) -> Result<u64, String> {
    let mut backoff = Backoff::new(
        Duration::from_millis(opts.backoff_base_ms),
        Duration::from_millis(opts.backoff_max_ms),
    );
    loop {
        match TcpStream::connect(&opts.addr) {
            Ok(stream) => {
                let served = split_connection(stream)
                    .map_err(|e| format!("preparing connection: {e}"))
                    .and_then(|(reader, writer)| serve(reader, writer));
                match served {
                    // Clean close from the supervisor: fleet shutdown.
                    Ok(served) => return Ok(served),
                    Err(e) => {
                        eprintln!("worker: connection to {} failed: {e}", opts.addr);
                        if std::env::var("AUTOCC_WORKER_FAULT").is_ok() {
                            // Injected faults are one-shot: a faulted
                            // worker that reconnected would re-fault
                            // forever.
                            return Err(e);
                        }
                        backoff.reset(); // the connect itself worked
                        std::thread::sleep(backoff.next_delay());
                    }
                }
            }
            Err(e) => {
                if let Some(max) = opts.max_connect_attempts {
                    if u64::from(backoff.attempts()) + 1 >= max {
                        return Err(format!("connect to {}: {e}", opts.addr));
                    }
                }
                std::thread::sleep(backoff.next_delay());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocc_hdl::ModuleBuilder;

    fn leaky_module() -> Module {
        let mut b = ModuleBuilder::new("dev");
        let inc = b.input("inc", 1);
        let ra = b.reg("a", 4, Bv::zero(4));
        let one = b.lit(4, 1);
        let na = b.add(ra, one);
        let next = b.mux(inc, na, ra);
        b.set_next(ra, next);
        let five = b.lit(4, 5);
        let ok = b.ult(ra, five);
        b.output("small", ok);
        b.build()
    }

    #[test]
    fn frames_round_trip_through_a_pipe_shaped_buffer() {
        let payload = heartbeat_json(3, Some(4096));
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, &heartbeat_json(3, Some(8192))).unwrap();
        let mut cursor = std::io::BufReader::new(&buf[..]);
        let first = read_frame(&mut cursor).unwrap().unwrap();
        let second = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(first.to_string_compact(), payload.to_string_compact());
        assert_eq!(second.get("rss_kb").and_then(Json::as_u64), Some(8192));
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_frames_are_errors_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &heartbeat_json(1, Some(1))).unwrap();
        for cut in 1..buf.len() {
            let mut cursor = std::io::BufReader::new(&buf[..cut]);
            assert!(
                read_frame(&mut cursor).is_err(),
                "cut at {cut} must not parse"
            );
        }
    }

    #[test]
    fn module_round_trips_with_recomputed_widths() {
        let m = leaky_module();
        let wire = module_json(&m);
        let back = parse_module(&wire).expect("round trip");
        assert_eq!(back.name(), m.name());
        assert_eq!(back.num_nodes(), m.num_nodes());
        for i in 0..m.num_nodes() {
            let id = NodeId::from_index(i);
            assert_eq!(back.width(id), m.width(id), "width of n{i}");
        }
        assert_eq!(back.regs().len(), m.regs().len());
        assert_eq!(back.state_bits(), m.state_bits());
    }

    #[test]
    fn corrupt_modules_are_rejected_not_panicked() {
        let m = leaky_module();
        let wire = module_json(&m);
        // Break the output node index far out of range.
        let Json::Obj(mut fields) = wire else {
            panic!("module wire form is an object")
        };
        for (k, field) in &mut fields {
            if k == "outputs" {
                *field = Json::Arr(vec![Json::Arr(vec![
                    Json::Str("small".to_string()),
                    Json::Num(9999),
                ])]);
            }
        }
        assert!(parse_module(&Json::Obj(fields)).is_err());
    }

    fn parse_result(frame: &Json) -> (u64, EngineRun) {
        match parse_worker_message(frame).expect("parse result") {
            WorkerMessage::Result { job, run } => (job, run),
            _ => panic!("expected a result frame"),
        }
    }

    #[test]
    fn request_and_result_round_trip() {
        let m = leaky_module();
        let p = m.output_node("small").unwrap();
        let config = CheckConfig::default()
            .depth(9)
            .conflicts(Some(1234))
            .no_timeout()
            .slice(true)
            .heartbeat_ms(77)
            .certify(true);
        let props = vec![("small".to_string(), p)];
        let wire = request_json("bmc", &m, &props, &[], &config);
        let req = parse_request(&wire).expect("parse request");
        assert_eq!(req.engine, "bmc");
        assert_eq!(req.config.max_depth, 9);
        assert_eq!(req.config.conflict_budget, Some(1234));
        assert_eq!(req.config.time_budget, None);
        assert!(req.config.slice);
        assert_eq!(req.config.heartbeat_ms, 77);
        assert!(req.config.certify, "certify knob crosses the wire");
        assert_eq!(req.properties, props);

        // A job frame carries the same request under a job id and lease.
        let (job, lease_ms, req) = parse_job(&job_json(5, Some(900), wire)).expect("parse job");
        assert_eq!((job, lease_ms), (5, Some(900)));
        assert_eq!(req.config.max_depth, 9);
        assert_eq!(req.properties, props);

        let mut run = EngineRun::from(EngineOutcome::BoundReached { depth: 9 });
        run.certificate = CertificateStatus::Certified {
            hash: 0xdead_beef_0bad_f00d,
        };
        let (job, back) = parse_result(&result_json(5, &run));
        assert_eq!(job, 5);
        match back.outcome {
            EngineOutcome::BoundReached { depth: 9 } => {}
            other => panic!("expected BoundReached, got {other:?}"),
        }
        assert_eq!(back.certificate, run.certificate);
        // An uncertified run crosses as null and comes back uncertified.
        run.certificate = CertificateStatus::Uncertified;
        let (_, back) = parse_result(&result_json(5, &run));
        assert_eq!(back.certificate, CertificateStatus::Uncertified);
    }

    #[test]
    fn a_huge_time_budget_saturates_on_the_wire() {
        let m = leaky_module();
        let p = m.output_node("small").unwrap();
        let config = CheckConfig::default().timeout(Duration::from_secs(166_020_696_663_386));
        let wire = request_json("bmc", &m, &[("small".to_string(), p)], &[], &config);
        let req = parse_request(&wire).expect("parse request");
        // Narrowing the budget's µs to u64 would wrap it to 35,456 µs.
        assert_eq!(
            req.config.time_budget,
            Some(Duration::from_micros(u64::MAX))
        );
    }

    #[test]
    fn untagged_and_foreign_worker_frames_are_refused() {
        let untagged = Json::Obj(vec![kind("heartbeat"), ("rss_kb".to_string(), Json::Null)]);
        assert!(parse_worker_message(&untagged).is_err());
        let foreign = Json::Obj(vec![
            kind("hello"),
            ("proto".to_string(), Json::Num(WIRE_PROTO + 1)),
            ("worker".to_string(), Json::Str("w".to_string())),
        ]);
        assert!(parse_worker_message(&foreign).is_err());
    }

    #[test]
    fn worker_serves_a_request_end_to_end_in_memory() {
        let m = leaky_module();
        let p = m.output_node("small").unwrap();
        let config = CheckConfig::default().depth(8).no_timeout().certify(true);
        let wire = request_json("bmc", &m, &[("small".to_string(), p)], &[], &config);
        let mut request_bytes = Vec::new();
        write_frame(&mut request_bytes, &job_json(1, None, wire)).unwrap();

        let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct SharedOut(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedOut {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // The input ends right after the job: the end of stream stands in
        // for the ack, and the loop returns cleanly.
        let input = FrameReader::pipe(std::io::Cursor::new(request_bytes));
        let served = serve(input, SharedOut(Arc::clone(&out))).expect("serve");
        assert_eq!(served, 1);

        let bytes = out.lock().unwrap().clone();
        let mut cursor = std::io::BufReader::new(&bytes[..]);
        let first = read_frame(&mut cursor).unwrap().expect("hello frame");
        assert!(matches!(
            parse_worker_message(&first),
            Ok(WorkerMessage::Hello { .. })
        ));
        let mut result = None;
        while let Some(frame) = read_frame(&mut cursor).unwrap() {
            match parse_worker_message(&frame).unwrap() {
                WorkerMessage::Heartbeat { job, .. } => assert_eq!(job, 1),
                WorkerMessage::Result { job, run } => {
                    assert_eq!(job, 1);
                    result = Some(run);
                }
                WorkerMessage::Hello { .. } => panic!("a second hello"),
            }
        }
        // The device counts to 5 and violates `small`: a CEX at depth 6,
        // exactly what the in-process engine reports.
        let run = result.expect("worker must emit a result frame");
        assert!(
            run.certificate.is_certified(),
            "certified request yields a certified result over the wire"
        );
        match run.outcome {
            EngineOutcome::Cex(cex) => {
                assert_eq!(cex.property, "small");
                assert!(cex.depth > 0);
            }
            other => panic!("expected a CEX, got {other:?}"),
        }
    }
}
