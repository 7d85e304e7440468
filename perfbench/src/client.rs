//! Closed-loop loopback clients: each sends its next request only after
//! the full reply to the last one, and checks every served score against
//! the pool's expected score bit for bit.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use microbrowse_api::v1::{BatchRequest, ScoreRequest};

use crate::pools::Pool;

/// How a workload talks to the server.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// `POST /v1/score`, one pair per request, on a keep-alive connection.
    KeepAlive,
    /// `POST /v1/score` on a new connection per request.
    ConnPerRequest,
    /// `POST /v1/batch` with this many pairs per request, keep-alive.
    Batch(usize),
}

impl Shape {
    pub fn pairs_per_request(self) -> usize {
        match self {
            Shape::Batch(n) => n,
            _ => 1,
        }
    }
}

/// Request bytes of one unit of work: a pair (`/v1/score`) or a run of
/// consecutive pairs (`/v1/batch`). `traced` asks the server for its
/// per-request stage timings in `X-Mb-Server-Timing`.
pub fn request_bytes(pool: &Pool, shape: Shape, unit: usize, traced: bool) -> Vec<u8> {
    let item = |i: usize| {
        let (r, s) = pool.wire_pair(i);
        ScoreRequest {
            r: r.to_owned(),
            s: s.to_owned(),
        }
    };
    let (path, body) = match shape {
        Shape::Batch(n) => (
            "/v1/batch",
            BatchRequest {
                items: (unit * n..(unit + 1) * n).map(item).collect(),
            }
            .to_json(),
        ),
        _ => ("/v1/score", item(unit).to_json()),
    };
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n",
        body.len()
    );
    if traced {
        out.push_str("X-Mb-Server-Timing: 1\r\n");
    }
    if shape == Shape::ConnPerRequest {
        out.push_str("Connection: close\r\n");
    }
    out.push_str("\r\n");
    out.push_str(&body);
    out.into_bytes()
}

/// One parsed reply.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// `(parse_us, score_us)` from `X-Mb-Server-Timing`, when asked for.
    pub timing: Option<(u64, u64)>,
}

/// A client connection with its read buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn bad(detail: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, detail.to_owned())
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Write one request and read its full reply.
    pub fn roundtrip(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-response"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("head not UTF-8"))?;
        let status = head
            .get(9..12)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = None;
        let mut timing = None;
        for line in head.split("\r\n").skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("x-mb-server-timing") {
                timing = parse_timing(value);
            }
        }
        let length = length.ok_or_else(|| bad("missing content-length"))?;
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok(Reply {
            status,
            body: self.buf[head_end..head_end + length].to_vec(),
            timing,
        })
    }
}

/// `queue=..;parse=..;score=..` → `(parse, score)`.
fn parse_timing(value: &str) -> Option<(u64, u64)> {
    let mut parse = None;
    let mut score = None;
    for part in value.trim().split(';') {
        match part.split_once('=') {
            Some(("parse", v)) => parse = v.parse().ok(),
            Some(("score", v)) => score = v.parse().ok(),
            _ => {}
        }
    }
    Some((parse?, score?))
}

/// Do the scores in a `/v1/score` or `/v1/batch` body equal `expected`,
/// bit for bit and in order? The server writes floats in shortest
/// round-trip form, so parsing them back is exact.
pub fn scores_match(body: &[u8], expected: &[f64]) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    let mut rest = text;
    let mut n = 0;
    while let Some(at) = rest.find("\"score\":") {
        rest = &rest[at + 8..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        let Ok(v) = rest[..end].trim().parse::<f64>() else {
            return false;
        };
        if expected.get(n).map(|e| e.to_bits()) != Some(v.to_bits()) {
            return false;
        }
        n += 1;
    }
    n == expected.len()
}

/// One completed request, kept small: a window holds one per request, and
/// its size must not move the process's peak memory with throughput.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Completion time since the window started, µs.
    pub end_us: u32,
    /// Client-measured latency, write (or connect) to full reply, ns.
    pub latency_ns: u32,
    /// Sent with `X-Mb-Server-Timing`.
    pub traced: bool,
}

impl Sample {
    pub fn latency_us(self) -> f64 {
        f64::from(self.latency_ns) / 1e3
    }
}

/// What one client saw in the timed window.
#[derive(Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    /// Server-reported `(parse_us, score_us)` of traced requests.
    pub timings: Vec<(u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Times each pool pair was sent, for the repeat check.
    pub sent: Vec<u32>,
    /// The pool ran out before the window ended (pools that must not
    /// repeat a pair are not cycled).
    pub exhausted: bool,
}

/// One client's closed loop over units `first, first + 1, …` (mod the unit
/// count when `cycle`), until `start + window`. With `slices > 0`,
/// the window alternates untraced and traced slices of equal length.
pub struct Loop<'a> {
    pub addr: SocketAddr,
    pub pool: &'a Pool,
    pub shape: Shape,
    pub cycle: bool,
    pub first: usize,
    pub start: Instant,
    pub window: Duration,
    pub slices: u32,
    /// Prebuilt request bytes per unit, `[untraced, traced]`; built on the
    /// fly when empty (pools too large to hold their requests).
    pub prebuilt: &'a [Vec<Vec<u8>>; 2],
}

impl Loop<'_> {
    pub fn units(&self) -> usize {
        self.pool.len() / self.shape.pairs_per_request()
    }

    /// Run the loop on `conn` (ignored for connection-per-request).
    pub fn run(&self, mut conn: Option<Conn>) -> ClientLog {
        let mut log = ClientLog {
            sent: vec![0; self.pool.len()],
            ..ClientLog::default()
        };
        let units = self.units();
        let per = self.shape.pairs_per_request();
        let mut k = 0usize;
        while Instant::now() < self.start {
            std::hint::spin_loop();
        }
        loop {
            let now = Instant::now();
            let elapsed = now - self.start;
            if elapsed >= self.window {
                break;
            }
            let traced = self.slices > 0
                && (elapsed.as_nanos() * self.slices as u128 / self.window.as_nanos()) % 2 == 1;
            let mut unit = self.first + k;
            if self.cycle {
                unit %= units;
            } else if unit >= units {
                log.exhausted = true;
                break;
            }
            k += 1;
            let built;
            let request: &[u8] = match self.prebuilt[traced as usize].get(unit) {
                Some(bytes) => bytes,
                None => {
                    built = request_bytes(self.pool, self.shape, unit, traced);
                    &built
                }
            };
            let expected = &self.pool.expected[unit * per..(unit + 1) * per];
            log.attempted += 1;
            for i in unit * per..(unit + 1) * per {
                log.sent[i] += 1;
            }
            let t0 = Instant::now();
            let reply = match (self.shape, conn.as_mut()) {
                (Shape::ConnPerRequest, _) | (_, None) => {
                    Conn::connect(self.addr).and_then(|mut c| {
                        let reply = c.roundtrip(request);
                        if self.shape != Shape::ConnPerRequest {
                            conn = Some(c);
                        }
                        reply
                    })
                }
                (_, Some(c)) => c.roundtrip(request),
            };
            let t1 = Instant::now();
            match reply {
                Ok(reply) if reply.status == 200 && scores_match(&reply.body, expected) => {
                    log.samples.push(Sample {
                        end_us: u32::try_from((t1 - self.start).as_micros()).unwrap_or(u32::MAX),
                        latency_ns: u32::try_from((t1 - t0).as_nanos()).unwrap_or(u32::MAX),
                        traced,
                    });
                    log.timings.extend(reply.timing);
                }
                Ok(_) => log.failed += 1,
                Err(_) => {
                    log.failed += 1;
                    conn = None;
                }
            }
        }
        log
    }
}

/// Send every unit in `units` once on `conn`, checking each reply; used to
/// warm the server's caches before the window.
pub fn warm(
    conn: &mut Conn,
    pool: &Pool,
    shape: Shape,
    units: std::ops::Range<usize>,
) -> Result<(), String> {
    let per = shape.pairs_per_request();
    for unit in units {
        let reply = conn
            .roundtrip(&request_bytes(pool, shape, unit, false))
            .map_err(|e| format!("warm-up request failed: {e}"))?;
        if reply.status != 200
            || !scores_match(&reply.body, &pool.expected[unit * per..(unit + 1) * per])
        {
            return Err(format!("warm-up reply {} was wrong", reply.status));
        }
    }
    Ok(())
}
