//! One measured segment: a fresh daemon on loopback TCP, primed, then
//! driven by closed-loop clients — editors and build tools that wait for
//! each reply — for a warm-up and a measured window.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, OnceLock};
use std::time::{Duration, Instant};

use stcfa_server::soak::percentile;
use stcfa_server::{Json, Server};

use crate::check::{self, truncate, Checker};
use crate::pool::Reference;
use crate::workload::{prime, Op, Shape, Stream, Workload};

/// Every `CHECK_EVERY`th op is compared in full against the reference.
const CHECK_EVERY: u64 = 16;
/// A response slower than this counts its connection as dead.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub index: usize,
    pub warmup: Duration,
    pub measure: Duration,
    /// Ops the segment must record before it stops: the measured window
    /// stretches (up to five times its length) until it has them.
    pub min_ops: usize,
}

/// What one segment measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SegmentResult {
    /// Ops attempted and failed, warm-up included.
    pub attempted: u64,
    pub failed: u64,
    pub ops_per_s: f64,
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// From `Server::new` to the start of load: boot, references,
    /// priming, connections and session opens.
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub shard_hit_frac: f64,
    pub cache_mb: f64,
    /// Successful ops started inside the measured window.
    pub ops: u64,
    pub errors: Vec<String>,
}

impl SegmentResult {
    pub fn to_json(&self) -> Json {
        let f = |x: f64| Json::Num(x);
        Json::obj(vec![
            ("attempted", Json::num(self.attempted)),
            ("failed", Json::num(self.failed)),
            ("ops_per_s", f(self.ops_per_s)),
            ("mean_ms", f(self.mean_ms)),
            ("p50_ms", f(self.p50_ms)),
            ("p99_ms", f(self.p99_ms)),
            ("setup_s", f(self.setup_s)),
            ("peak_rss_mb", f(self.peak_rss_mb)),
            ("shard_hit_frac", f(self.shard_hit_frac)),
            ("cache_mb", f(self.cache_mb)),
            ("ops", Json::num(self.ops)),
            (
                "errors",
                Json::Arr(self.errors.iter().map(|e| Json::str(e.as_str())).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Option<SegmentResult> {
        let f = |k: &str| match v.get(k) {
            Some(Json::Num(x)) => Some(*x),
            _ => None,
        };
        Some(SegmentResult {
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            ops_per_s: f("ops_per_s")?,
            mean_ms: f("mean_ms")?,
            p50_ms: f("p50_ms")?,
            p99_ms: f("p99_ms")?,
            setup_s: f("setup_s")?,
            peak_rss_mb: f("peak_rss_mb")?,
            shard_hit_frac: f("shard_hit_frac")?,
            cache_mb: f("cache_mb")?,
            ops: v.get("ops")?.as_u64()?,
            errors: v
                .get("errors")?
                .as_arr()?
                .iter()
                .filter_map(|e| e.as_str().map(str::to_owned))
                .collect(),
        })
    }
}

/// A line-oriented client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            writer,
            reader: BufReader::new(stream),
        })
    }

    fn send(&mut self, lines: &[String]) -> Result<(), String> {
        let mut batch = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            batch.push_str(line);
            batch.push('\n');
        }
        self.writer
            .write_all(batch.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("connection died on write: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                line.truncate(line.trim_end().len());
                Ok(line)
            }
            Ok(_) => Err("connection closed by the daemon".to_owned()),
            Err(e) => Err(format!("connection died on read: {e}")),
        }
    }

    /// Sends `op` the way its shape says and returns each response with
    /// its latency in nanoseconds from `started`.
    fn exec(&mut self, op: &Op, started: Instant) -> Result<Vec<(String, u64)>, String> {
        let stamp = |line: String| (line, started.elapsed().as_nanos() as u64);
        let mut out = Vec::with_capacity(op.lines.len());
        match op.shape {
            Shape::Single | Shape::Burst => {
                self.send(&op.lines)?;
                for _ in 0..op.lines.len() {
                    out.push(stamp(self.recv()?));
                }
            }
            Shape::Save => {
                self.send(&op.lines[..1])?;
                out.push(stamp(self.recv()?));
                self.send(&op.lines[1..])?;
                for _ in 1..op.lines.len() {
                    out.push(stamp(self.recv()?));
                }
            }
        }
        Ok(out)
    }

    /// One request outside the load: its parsed `result`.
    fn call(&mut self, line: &str) -> Result<Json, String> {
        self.send(&[line.to_owned()])?;
        let response = self.recv()?;
        Json::parse(&response)
            .ok()
            .filter(|v| v.get("ok").and_then(Json::as_bool) == Some(true))
            .and_then(|v| v.get("result").cloned())
            .ok_or_else(|| format!("control request failed: {}", truncate(&response)))
    }
}

/// One client's tally.
#[derive(Default)]
struct ClientRun {
    latencies_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    last_done: Option<Instant>,
    errors: Vec<String>,
}

impl ClientRun {
    fn fail(&mut self, ops: usize, error: String) {
        self.failed += ops as u64;
        if self.errors.len() < 4 {
            self.errors.push(error);
        }
    }
}

/// When the clients of a segment measure and stop.
struct Window<'a> {
    warm_end: Instant,
    end: Instant,
    hard_end: Instant,
    min_ops: usize,
    /// Ops recorded so far, by every client of the segment.
    recorded: &'a AtomicUsize,
}

impl Window<'_> {
    /// Past the window once it has run its length and recorded
    /// `min_ops` ops, or at the hard stop.
    fn over(&self, now: Instant) -> bool {
        now >= self.hard_end
            || (now >= self.end && self.recorded.load(Ordering::Relaxed) >= self.min_ops)
    }
}

fn drive(
    conn: &mut Conn,
    stream: &mut Stream<'_>,
    checker: &Checker<'_>,
    window: &Window<'_>,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut ops_done = 0u64;
    loop {
        let started = Instant::now();
        if window.over(started) {
            break;
        }
        let op = stream.next_op();
        let n = op.metric_ops();
        run.attempted += n as u64;
        let responses = match conn.exec(&op, started) {
            Ok(r) => r,
            Err(e) => {
                run.fail(n, e);
                break;
            }
        };
        let done = Instant::now();
        // Each metric op covers one response of a burst, or every
        // response of a single request or a save.
        for j in 0..n {
            let covered = if op.shape == Shape::Burst {
                j..j + 1
            } else {
                0..responses.len()
            };
            let full = ops_done.is_multiple_of(CHECK_EVERY);
            ops_done += 1;
            let outcome = covered.clone().try_for_each(|i| {
                if full {
                    checker.check(&op, i, &responses[i].0)
                } else {
                    check::status(&op, i, &responses[i].0)
                }
            });
            match outcome {
                Err(e) => run.fail(1, e),
                Ok(()) if started >= window.warm_end => {
                    run.latencies_ns.push(responses[covered.end - 1].1);
                    window.recorded.fetch_add(1, Ordering::Relaxed);
                }
                Ok(()) => {}
            }
        }
        if started >= window.warm_end {
            run.last_done = Some(done);
        }
    }
    run
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one segment; `scratch` is this process's private directory.
pub fn run(plan: Plan, scratch: &Path) -> Result<SegmentResult, String> {
    let setup_started = Instant::now();
    let server = Server::new(plan.workload.server_options(scratch));
    let refs: Vec<Reference> = plan
        .workload
        .pool(plan.seed)
        .iter()
        .map(Reference::build)
        .collect();
    let checker = Checker::new(plan.workload, &refs);
    let mut streams: Vec<Stream<'_>> = (0..plan.workload.clients())
        .map(|conn| Stream::new(plan.workload, plan.seed, plan.index, conn, &refs))
        .collect();
    prime(&server, &refs, &mut streams, &checker)?;
    let (bound_tx, bound_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| {
            server.serve_tcp("127.0.0.1:0", move |addr| {
                let _ = bound_tx.send(addr);
            })
        });
        let addr = bound_rx
            .recv()
            .map_err(|_| "the daemon failed to bind loopback".to_owned())?;
        let outcome = load(plan, addr, streams, &checker, setup_started);
        // Stop the daemon with the protocol's own `shutdown`, whatever
        // the load's outcome, so the serving thread drains and ends. A
        // daemon that cannot be told to stop would hold the scope open
        // forever, so that failure ends the process instead.
        let stats = stop(addr).unwrap_or_else(|e| {
            eprintln!("benchmark: cannot stop the daemon: {e}");
            std::process::exit(1)
        });
        serving
            .join()
            .map_err(|_| "the serving thread panicked".to_owned())?
            .map_err(|e| format!("serve_tcp: {e}"))?;
        let mut result = outcome?;
        let cache = stats.get("cache").ok_or("stats lacks `cache`")?;
        let fleet = stats.get("fleet").ok_or("stats lacks `fleet`")?;
        let count = |v: &Json, k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
        result.shard_hit_frac = count(fleet, "shard_hits") / count(fleet, "dispatched").max(1.0);
        result.cache_mb = count(cache, "bytes") / f64::from(1 << 20);
        result.peak_rss_mb = peak_rss_mb();
        Ok(result)
    })
}

/// Reads the daemon's `stats`, then stops it with `shutdown`.
fn stop(addr: SocketAddr) -> Result<Json, String> {
    let mut control = Conn::connect(addr)?;
    let stats = control.call(r#"{"id":0,"op":"stats"}"#)?;
    control.call(r#"{"id":1,"op":"shutdown"}"#)?;
    Ok(stats)
}

/// Connects the clients and runs the load.
fn load(
    plan: Plan,
    addr: SocketAddr,
    streams: Vec<Stream<'_>>,
    checker: &Checker<'_>,
    setup_started: Instant,
) -> Result<SegmentResult, String> {
    let ready = Barrier::new(streams.len() + 1);
    let load_start: OnceLock<Instant> = OnceLock::new();
    let recorded = AtomicUsize::new(0);
    let runs: Vec<Result<ClientRun, String>> = std::thread::scope(|scope| {
        let clients: Vec<_> = streams
            .into_iter()
            .map(|mut stream| {
                let (ready, load_start, recorded) = (&ready, &load_start, &recorded);
                scope.spawn(move || {
                    let connected = Conn::connect(addr);
                    ready.wait();
                    let mut c = connected?;
                    let warm_end = *load_start.get_or_init(Instant::now) + plan.warmup;
                    let window = Window {
                        warm_end,
                        end: warm_end + plan.measure,
                        hard_end: warm_end + plan.measure * 5,
                        min_ops: plan.min_ops,
                        recorded,
                    };
                    Ok(drive(&mut c, &mut stream, checker, &window))
                })
            })
            .collect();
        ready.wait();
        load_start.get_or_init(Instant::now);
        clients
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client panicked".to_owned()))
            })
            .collect()
    });
    let t0 = *load_start.get().expect("set when the load started");
    let mut result = SegmentResult {
        setup_s: (t0 - setup_started).as_secs_f64(),
        ..SegmentResult::default()
    };
    let mut latencies = Vec::new();
    let mut last_done = t0 + plan.warmup;
    for run in runs {
        let run = run?;
        result.attempted += run.attempted;
        result.failed += run.failed;
        result.errors.extend(run.errors);
        latencies.extend(run.latencies_ns);
        last_done = last_done.max(run.last_done.unwrap_or(last_done));
    }
    latencies.sort_unstable();
    let measured = (last_done - (t0 + plan.warmup)).as_secs_f64();
    result.ops_per_s = latencies.len() as f64 / measured.max(1e-9);
    result.mean_ms = latencies.iter().sum::<u64>() as f64 / latencies.len().max(1) as f64 / 1e6;
    result.p50_ms = percentile(&latencies, 50.0) as f64 / 1e6;
    result.p99_ms = percentile(&latencies, 99.0) as f64 / 1e6;
    result.ops = latencies.len() as u64;
    Ok(result)
}
