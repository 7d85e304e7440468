//! The four closed-loop workloads: their inputs, warm-up, timed window,
//! and the property each must show to count.

use std::time::{Duration, Instant};

use microbrowse_obs::metrics::registry;

use crate::bundle::Served;
use crate::client::{request_bytes, warm, ClientLog, Conn, Loop, Sample, Shape};
use crate::pools::{held_out, Pool, HOT_SET};
use crate::stats::Rng;

/// Pairs per `/v1/batch` request.
pub const BATCH: usize = 64;
/// Held-out pairs `cold-score` sends before its window (never repeated in
/// it), so the connection and worker are past their first requests.
pub const COLD_WARM: usize = 1024;
/// Upper bound on `cold-score`'s rate, pairs per second, that sizes its
/// pool: a pool that runs out fails the run rather than repeat a pair.
pub const COLD_RATE_CAP: usize = 25_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    HotScore,
    ColdScore,
    ConnChurn,
    HotBatch,
}

pub const ALL: [Name; 4] = [
    Name::HotScore,
    Name::ColdScore,
    Name::ConnChurn,
    Name::HotBatch,
];

impl Name {
    pub fn parse(s: &str) -> Option<Self> {
        ALL.into_iter().find(|n| n.as_str() == s)
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Name::HotScore => "hot-score",
            Name::ColdScore => "cold-score",
            Name::ConnChurn => "conn-churn",
            Name::HotBatch => "hot-batch",
        }
    }

    pub fn shape(self) -> Shape {
        match self {
            Name::HotScore | Name::ColdScore => Shape::KeepAlive,
            Name::ConnChurn => Shape::ConnPerRequest,
            Name::HotBatch => Shape::Batch(BATCH),
        }
    }

    /// Client connections: one, except `hot-batch`, which keeps every
    /// server worker busy with one connection each.
    pub fn clients(self, workers: usize) -> usize {
        match self {
            Name::HotBatch => workers,
            _ => 1,
        }
    }

    /// Does this workload use the pool it is given exactly once, in order?
    pub fn is_cold(self) -> bool {
        self == Name::ColdScore
    }
}

/// Process-wide counters the server exports on `/metrics`.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub connections: u64,
}

impl Counters {
    pub fn read() -> Self {
        let r = registry();
        Self {
            hits: r.counter("microbrowse_aligncache_hits_total").get(),
            misses: r.counter("microbrowse_aligncache_misses_total").get(),
            evictions: r.counter("microbrowse_aligncache_evictions_total").get(),
            connections: r.counter("microbrowse_http_connections_total").get(),
        }
    }

    pub fn since(self, before: Self) -> Self {
        Self {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            connections: self.connections - before.connections,
        }
    }

    pub fn hit_ratio(self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// The hot working set: [`HOT_SET`] ordered pairs drawn from the training
/// corpus by `seed`.
pub fn hot_pool(served: &Served, seed: u64) -> Result<Pool, String> {
    let mut pool = Pool::from_corpus(&served.corpus, &mut Rng::new(seed));
    pool.pairs.truncate(HOT_SET);
    pool.fill_expected(&served.bundle, served.workers)?;
    Ok(pool)
}

/// At least `pairs` distinct ordered pairs from a held-out corpus
/// generated from `seed`.
pub fn held_out_pool(served: &Served, seed: u64, pairs: usize) -> Result<Pool, String> {
    let corpus_seed = Rng::new(seed ^ 0xC01D).next_u64();
    let mut adgroups = pairs / 8 + 64;
    loop {
        let mut pool = Pool::from_corpus(&held_out(adgroups, corpus_seed), &mut Rng::new(seed));
        if pool.len() >= pairs {
            pool.pairs.truncate(pairs);
            pool.fill_expected(&served.bundle, served.workers)?;
            return Ok(pool);
        }
        adgroups *= 2;
    }
}

/// `cold-score`'s pool: [`COLD_WARM`] warm-up pairs, then enough new pairs
/// for `seconds` at [`COLD_RATE_CAP`].
pub fn cold_pool(served: &Served, seed: u64, seconds: f64) -> Result<Pool, String> {
    held_out_pool(
        served,
        seed,
        COLD_WARM + (COLD_RATE_CAP as f64 * seconds).ceil() as usize,
    )
}

/// Everything one timed window produced.
pub struct Window {
    pub name: Name,
    pub clients: usize,
    pub pairs_per_request: usize,
    pub samples: Vec<Sample>,
    /// Server-reported `(parse_us, score_us)` of traced requests.
    pub timings: Vec<(u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub counters: Counters,
    /// Pairs sent and distinct ordered pairs among them.
    pub pairs_sent: u64,
    pub distinct_pairs: u64,
    pub exhausted: bool,
}

impl Window {
    /// The property this workload must show; `Err` names the breach.
    pub fn check_property(&self) -> Result<(), String> {
        let c = self.counters;
        let fail = |what: String| Err(format!("{}: {what}", self.name.as_str()));
        if self.exhausted {
            return fail("the pool ran out before the window ended".into());
        }
        match self.name {
            Name::HotScore | Name::HotBatch | Name::ConnChurn => {
                if c.misses != 0 || c.hits == 0 {
                    return fail(format!(
                        "paircache.hit_ratio {} (hits {}, misses {}), expected 1.0 after warm-up",
                        c.hit_ratio(),
                        c.hits,
                        c.misses
                    ));
                }
            }
            Name::ColdScore => {
                if c.hits != 0 || self.distinct_pairs != self.pairs_sent {
                    return fail(format!(
                        "{} alignment-cache hits and {} repeated ordered pairs, expected none",
                        c.hits,
                        self.pairs_sent - self.distinct_pairs
                    ));
                }
            }
        }
        if self.name == Name::ConnChurn && c.connections != self.attempted {
            return fail(format!(
                "{} connections for {} requests, expected one per request",
                c.connections, self.attempted
            ));
        }
        Ok(())
    }
}

/// Warm the server for `name`, then run its clients for `seconds`. With
/// `slices > 0` the window alternates untraced and traced slices.
pub fn run(
    served: &Served,
    name: Name,
    pool: &Pool,
    seconds: f64,
    slices: u32,
) -> Result<Window, String> {
    let addr = served.handle.addr();
    let shape = name.shape();
    let per = shape.pairs_per_request();
    let clients = name.clients(served.workers);
    let units = pool.len() / per;
    if units == 0 {
        return Err(format!("{}: pool too small", name.as_str()));
    }
    let connect = || Conn::connect(addr).map_err(|e| format!("connect: {e}"));

    // Warm-up: one pass over the hot working set (`conn-churn` warms on a
    // keep-alive connection it then closes), or `cold-score`'s reserved
    // warm-up pairs. Each keep-alive client warms its own connection, so
    // every worker's scratch is warm too.
    let warm_units = if name.is_cold() {
        COLD_WARM.min(units)
    } else {
        (HOT_SET / per).min(units)
    };
    let warm_shape = if shape == Shape::ConnPerRequest {
        Shape::KeepAlive
    } else {
        shape
    };
    let mut conns = Vec::new();
    for _ in 0..clients {
        let mut conn = connect()?;
        warm(&mut conn, pool, warm_shape, 0..warm_units)?;
        conns.push(conn);
    }
    if shape == Shape::ConnPerRequest {
        conns.clear();
    }

    // Hot pools are small enough to hold their request bytes.
    let prebuilt = if name.is_cold() {
        [Vec::new(), Vec::new()]
    } else {
        let build = |traced| {
            (0..units)
                .map(|u| request_bytes(pool, shape, u, traced))
                .collect()
        };
        [
            build(false),
            if slices > 0 { build(true) } else { Vec::new() },
        ]
    };

    let window = Duration::from_secs_f64(seconds);
    let before = Counters::read();
    let start = Instant::now() + Duration::from_millis(5);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let conn = conns.pop();
                let lp = Loop {
                    addr,
                    pool,
                    shape,
                    cycle: !name.is_cold(),
                    first: if name.is_cold() {
                        warm_units
                    } else {
                        c * units / clients
                    },
                    start,
                    window,
                    slices,
                    prebuilt: &prebuilt,
                };
                scope.spawn(move || lp.run(conn))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let counters = Counters::read().since(before);

    let mut samples = Vec::new();
    let mut timings = Vec::new();
    let (mut attempted, mut failed, mut exhausted) = (0, 0, false);
    let mut sent = vec![0u32; pool.len()];
    for log in logs {
        samples.extend(log.samples);
        timings.extend(log.timings);
        attempted += log.attempted;
        failed += log.failed;
        exhausted |= log.exhausted;
        for (total, n) in sent.iter_mut().zip(log.sent) {
            *total += n;
        }
    }
    Ok(Window {
        name,
        clients,
        pairs_per_request: per,
        samples,
        timings,
        attempted,
        failed,
        counters,
        pairs_sent: sent.iter().map(|&n| u64::from(n)).sum(),
        distinct_pairs: sent.iter().filter(|&&n| n > 0).count() as u64,
        exhausted,
    })
}
