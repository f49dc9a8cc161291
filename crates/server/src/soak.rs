//! A many-connection soak driver for the TCP transport, shared by the
//! `stcfa soak` CLI subcommand, `benches/server.rs`, and the CI smoke
//! stage.
//!
//! The driver opens N connections, pipelines bursty batches of
//! `label-set` queries down each (write the whole burst, then drain the
//! responses), and verifies on the way out that every response carries
//! the expected `id` *in order* — a reordered transcript is a hard
//! failure, not a statistic. Because every connection issues the same
//! request sequence against a warm cache, the full per-connection
//! transcripts must also be byte-identical across connections; the
//! report says whether they were. Latency is stamped per response from
//! the start of its burst (pipeline latency, the number a batching
//! client actually experiences) and summarized as p50/p99.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use stcfa_devkit::json::Json;

/// Soak shape: how many connections, how hard each one pushes.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Concurrent connections. The default scales with the host — 8 per
    /// available core, capped at 64 — because each connection is a
    /// client-side OS thread: a fixed 64 would oversubscribe a
    /// single-core host with the load generator alone, drowning the
    /// daemon the soak is supposed to exercise.
    pub connections: usize,
    /// Bursts per connection.
    pub bursts: usize,
    /// Requests pipelined per burst.
    pub burst: usize,
    /// Source text every query analyzes (warmed once up front unless
    /// `warm` is false).
    pub source: String,
    /// Pre-warm the daemon's cache with one `analyze` before the clock
    /// starts, so the soak measures transport + cache-hit costs.
    pub warm: bool,
    /// Per-read timeout — a response that takes longer than this counts
    /// the connection as hung (and fails the soak).
    pub read_timeout: Duration,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            addr: String::new(),
            connections: std::thread::available_parallelism()
                .map_or(1, |p| p.get())
                .saturating_mul(8)
                .min(64),
            bursts: 4,
            burst: 8,
            source: "(fn x => x) (fn y => y)".to_owned(),
            warm: true,
            read_timeout: Duration::from_secs(60),
        }
    }
}

/// What a soak run observed.
#[derive(Clone, Debug, Default)]
pub struct SoakReport {
    /// Connections driven.
    pub connections: usize,
    /// Responses received (all connections).
    pub requests: u64,
    /// Responses carrying a non-`overloaded` error.
    pub errors: u64,
    /// Responses carrying the structured `overloaded` rejection.
    pub overloaded: u64,
    /// Responses with the wrong or out-of-order `id` (must be zero).
    pub reordered: u64,
    /// Connections that hung, died, or failed to connect.
    pub failed_connections: u64,
    /// Wall-clock for the whole soak.
    pub elapsed_ns: u64,
    /// Pipeline latency percentiles across every response.
    pub p50_ns: u64,
    /// 99th percentile pipeline latency.
    pub p99_ns: u64,
    /// Worst single response.
    pub max_ns: u64,
    /// Responses per second over the wall clock.
    pub throughput_rps: u64,
    /// Whether every connection's transcript was byte-identical.
    pub transcript_identical: bool,
}

impl SoakReport {
    /// The report as one canonical JSON line (CI parses this).
    pub fn to_json_line(&self) -> String {
        Json::obj(vec![
            ("connections", Json::num(self.connections as u64)),
            ("requests", Json::num(self.requests)),
            ("errors", Json::num(self.errors)),
            ("overloaded", Json::num(self.overloaded)),
            ("reordered", Json::num(self.reordered)),
            ("failed_connections", Json::num(self.failed_connections)),
            ("elapsed_ns", Json::num(self.elapsed_ns)),
            ("p50_ns", Json::num(self.p50_ns)),
            ("p99_ns", Json::num(self.p99_ns)),
            ("max_ns", Json::num(self.max_ns)),
            ("throughput_rps", Json::num(self.throughput_rps)),
            (
                "transcript_identical",
                Json::Bool(self.transcript_identical),
            ),
        ])
        .to_line()
    }

    /// A soak is clean when nothing hung, errored, reordered, or was
    /// shed — the CI smoke gate.
    pub fn clean(&self) -> bool {
        self.errors == 0
            && self.overloaded == 0
            && self.reordered == 0
            && self.failed_connections == 0
            && self.transcript_identical
    }
}

/// One connection's outcome.
struct ConnRun {
    latencies_ns: Vec<u64>,
    errors: u64,
    overloaded: u64,
    reordered: u64,
    transcript: String,
    failed: bool,
}

/// Runs the soak. Connect errors and hangs are folded into the report
/// (`failed_connections`), not returned: the caller always gets numbers.
pub fn run_soak(config: &SoakConfig) -> SoakReport {
    let query = |id: u64| {
        Json::obj(vec![
            ("id", Json::num(id)),
            ("op", Json::str("query")),
            ("kind", Json::str("label-set")),
            ("source", Json::str(&config.source)),
        ])
        .to_line()
    };
    if config.warm {
        let _ = warm_cache(config);
    }
    let started = Instant::now();
    let mut runs: Vec<ConnRun> = Vec::with_capacity(config.connections);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.connections)
            .map(|_| scope.spawn(|| drive_connection(config, &query)))
            .collect();
        for h in handles {
            runs.push(h.join().unwrap_or_else(|_| ConnRun {
                latencies_ns: Vec::new(),
                errors: 0,
                overloaded: 0,
                reordered: 0,
                transcript: String::new(),
                failed: true,
            }));
        }
    });
    let elapsed_ns = started.elapsed().as_nanos() as u64;

    let mut latencies: Vec<u64> = Vec::new();
    let mut report = SoakReport {
        connections: config.connections,
        elapsed_ns,
        transcript_identical: true,
        ..SoakReport::default()
    };
    let mut reference: Option<&str> = None;
    for run in &runs {
        report.requests += run.latencies_ns.len() as u64;
        report.errors += run.errors;
        report.overloaded += run.overloaded;
        report.reordered += run.reordered;
        if run.failed {
            report.failed_connections += 1;
            continue;
        }
        latencies.extend_from_slice(&run.latencies_ns);
        match reference {
            None => reference = Some(&run.transcript),
            Some(r) if r != run.transcript => report.transcript_identical = false,
            Some(_) => {}
        }
    }
    latencies.sort_unstable();
    report.p50_ns = percentile(&latencies, 50.0);
    report.p99_ns = percentile(&latencies, 99.0);
    report.max_ns = latencies.last().copied().unwrap_or(0);
    if elapsed_ns > 0 {
        report.throughput_rps = (report.requests as u128 * 1_000_000_000 / elapsed_ns as u128)
            .min(u64::MAX as u128) as u64;
    }
    report
}

/// One `analyze` round-trip so the measured soak hits a warm cache.
fn warm_cache(config: &SoakConfig) -> io::Result<()> {
    let stream = TcpStream::connect(&config.addr)?;
    stream.set_read_timeout(Some(config.read_timeout))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let request = Json::obj(vec![
        ("op", Json::str("analyze")),
        ("source", Json::str(&config.source)),
    ])
    .to_line();
    writeln!(writer, "{request}")?;
    writer.flush()?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    Ok(())
}

fn drive_connection(config: &SoakConfig, query: &dyn Fn(u64) -> String) -> ConnRun {
    let mut run = ConnRun {
        latencies_ns: Vec::new(),
        errors: 0,
        overloaded: 0,
        reordered: 0,
        transcript: String::new(),
        failed: false,
    };
    let stream = match TcpStream::connect(&config.addr) {
        Ok(s) => s,
        Err(_) => {
            run.failed = true;
            return run;
        }
    };
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(config.read_timeout)).is_err() {
        run.failed = true;
        return run;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => {
            run.failed = true;
            return run;
        }
    };
    let mut reader = BufReader::new(stream);
    let mut next_id = 0u64;
    for _ in 0..config.bursts {
        // Bursty on purpose: the whole batch hits the daemon at once.
        let mut batch = String::new();
        let first_id = next_id;
        for _ in 0..config.burst {
            batch.push_str(&query(next_id));
            batch.push('\n');
            next_id += 1;
        }
        let burst_started = Instant::now();
        if writer.write_all(batch.as_bytes()).is_err() || writer.flush().is_err() {
            run.failed = true;
            return run;
        }
        let mut line = String::new();
        for expect in first_id..next_id {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => {
                    // EOF or timeout mid-burst: the daemon hung or
                    // dropped us.
                    run.failed = true;
                    return run;
                }
            }
            run.latencies_ns
                .push(burst_started.elapsed().as_nanos() as u64);
            let trimmed = line.trim_end();
            run.transcript.push_str(trimmed);
            run.transcript.push('\n');
            match response_id(trimmed) {
                Some(id) if id == expect => {}
                _ => run.reordered += 1,
            }
            if line.contains("\"error\"") {
                if line.contains("\"kind\":\"overloaded\"") {
                    run.overloaded += 1;
                } else {
                    run.errors += 1;
                }
            }
        }
    }
    run
}

/// The numeric `id` a response echoes, if parseable.
fn response_id(line: &str) -> Option<u64> {
    Json::parse(line).ok()?.get("id")?.as_u64()
}

/// Nearest-rank percentile over an already-sorted slice.
pub fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[42], 99.0), 42);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn report_json_line_is_canonical_and_clean_gate_works() {
        let mut r = SoakReport {
            connections: 2,
            requests: 10,
            transcript_identical: true,
            ..SoakReport::default()
        };
        let line = r.to_json_line();
        let parsed = Json::parse(&line).expect("report must be valid JSON");
        assert_eq!(parsed.get("connections").and_then(Json::as_u64), Some(2));
        assert_eq!(
            parsed.get("transcript_identical").and_then(Json::as_bool),
            Some(true)
        );
        assert!(r.clean());
        r.overloaded = 1;
        assert!(!r.clean(), "shed load must fail the clean gate");
    }
}
