//! The daemon's request economics: what a request costs when the
//! content-addressed cache misses (parse + analyze + freeze) vs when it
//! hits (digest lookup + Arc clone), pipeline throughput at several
//! worker counts over a warm cache, and the many-connection soak — the
//! nonblocking fleet transport against the per-connection-thread
//! baseline under bursty pipelined load.

use std::hint::black_box;
use std::io::Cursor;
use std::sync::mpsc;
use std::time::Instant;

use stcfa_devkit::bench::{BenchmarkId, Criterion};
use stcfa_devkit::{criterion_group, criterion_main};
use stcfa_server::{run_soak, Json, Server, ServerOptions, SoakConfig, SoakReport};
use stcfa_workloads::{lexgen, life};

fn corpus() -> Vec<(&'static str, String)> {
    vec![
        ("identity", "(fn x => x) (fn y => y)".to_owned()),
        ("life", life::program().to_source()),
        ("lexgen", lexgen::program().to_source()),
    ]
}

fn analyze_request(source: &str) -> String {
    Json::obj(vec![
        ("op", Json::str("analyze")),
        ("source", Json::str(source)),
    ])
    .to_line()
}

fn query_request(id: usize, source: &str) -> String {
    Json::obj(vec![
        ("id", Json::num(id as u64)),
        ("op", Json::str("query")),
        ("kind", Json::str("label-set")),
        ("source", Json::str(source)),
    ])
    .to_line()
}

fn server(threads: usize) -> Server {
    Server::new(ServerOptions {
        threads,
        ..Default::default()
    })
}

fn bench_server(c: &mut Criterion) {
    let mut group = c.benchmark_group("server");
    group.sample_size(10);
    let corpus = corpus();

    // Cold: every iteration is a fresh daemon, so the analyze request pays
    // the full build (the cache-miss path).
    for (name, source) in &corpus {
        let request = analyze_request(source);
        group.bench_with_input(
            BenchmarkId::new("analyze_cold", name),
            &request,
            |b, request| {
                b.iter(|| {
                    let s = server(1);
                    black_box(s.handle_line(request, Instant::now()))
                })
            },
        );
    }

    // Warm: one daemon, source already cached; the same request is a
    // digest lookup plus an Arc clone.
    for (name, source) in &corpus {
        let request = analyze_request(source);
        let s = server(1);
        s.handle_line(&request, Instant::now());
        group.bench_with_input(
            BenchmarkId::new("analyze_warm", name),
            &request,
            |b, request| b.iter(|| black_box(s.handle_line(request, Instant::now()))),
        );
    }

    // Disk-warm: every iteration is a fresh daemon (the memory cache is
    // cold), but its `--cache-dir` already holds the persisted snapshot —
    // the restart path: read + integrity check + decode instead of
    // parse + analyze + freeze.
    let cache_root =
        std::env::temp_dir().join(format!("stcfa-bench-server-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_root);
    for (name, source) in &corpus {
        let dir = cache_root.join(name);
        let request = analyze_request(source);
        let warmer = Server::new(ServerOptions {
            threads: 1,
            cache_dir: Some(dir.clone()),
            ..Default::default()
        });
        warmer.handle_line(&request, Instant::now());
        group.bench_with_input(
            BenchmarkId::new("analyze_disk_warm", name),
            &request,
            |b, request| {
                b.iter(|| {
                    let s = Server::new(ServerOptions {
                        threads: 1,
                        cache_dir: Some(dir.clone()),
                        ..Default::default()
                    });
                    black_box(s.handle_line(request, Instant::now()))
                })
            },
        );
    }
    let _ = std::fs::remove_dir_all(&cache_root);

    // Pipeline throughput over a warm cache: 64 label-set queries against
    // the largest corpus entry, piped through `serve` (the stdio
    // transport: one connection of the event loop) at --threads 1/2/8.
    let (_, big) = corpus.last().expect("corpus is non-empty");
    let mut batch = String::new();
    for i in 0..64 {
        batch.push_str(&query_request(i, big));
        batch.push('\n');
    }
    for &threads in &[1usize, 2, 8] {
        let s = server(threads);
        s.handle_line(&analyze_request(big), Instant::now());
        group.bench_with_input(
            BenchmarkId::new("pipeline_warm_64_queries", format!("t{threads}")),
            &batch,
            |b, batch| {
                b.iter(|| {
                    let mut out = Vec::with_capacity(batch.len());
                    s.serve(Cursor::new(batch.clone()), &mut out).unwrap();
                    black_box(out.len())
                })
            },
        );
    }
    group.finish();
}

/// Boots a daemon on an ephemeral loopback port through the nonblocking
/// event-loop fleet, runs `f` against the bound address, then drives a
/// clean protocol shutdown and joins the serve thread.
fn with_tcp_server(f: impl FnOnce(&str)) {
    let server = Server::new(ServerOptions {
        threads: 2,
        // Nominal load for the 256-connection soak is 2048 frames in
        // flight at once; admission must not shed any of it.
        max_inflight: 4096,
        ..Default::default()
    });
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let srv = &server;
        scope.spawn(move || {
            let on_bound = move |a: std::net::SocketAddr| tx.send(a).unwrap();
            srv.serve_tcp("127.0.0.1:0", on_bound).unwrap();
        });
        let addr = rx.recv().unwrap().to_string();
        f(&addr);
        use std::io::{BufRead, BufReader, Write};
        let stream = std::net::TcpStream::connect(&addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
        let mut bye = String::new();
        BufReader::new(stream).read_line(&mut bye).unwrap();
    });
}

fn bench_soak(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_soak");
    group.sample_size(5);

    // Bursty pipelined load over a warm cache: every connection fires
    // `burst` back-to-back requests, reads the burst's responses, and
    // repeats. The tiny identity source keeps per-request engine work
    // negligible so the measurement isolates the *transport*: framing,
    // dispatch, scheduling, and write-path behaviour under concurrency.
    let cases: &[(&str, usize)] = &[("fleet/c64", 64), ("fleet/c256", 256)];
    for &(name, connections) in cases {
        let mut last: Option<SoakReport> = None;
        with_tcp_server(|addr| {
            let config = SoakConfig {
                addr: addr.to_owned(),
                connections,
                bursts: 4,
                burst: 8,
                ..Default::default()
            };
            group.bench_function(name, |b| {
                b.iter(|| {
                    last = Some(run_soak(&config));
                })
            });
        });
        // Verified after the daemon is down, so a failure can't strand
        // the serve thread in the scope join above.
        let report = last.expect("soak never ran");
        assert!(report.clean(), "soak failed: {}", report.to_json_line());
        group
            .counter("connections", report.connections as u64)
            .counter("requests", report.requests)
            .counter("p50_ns", report.p50_ns)
            .counter("p99_ns", report.p99_ns)
            .counter("throughput_rps", report.throughput_rps);
    }
    group.finish();
}

criterion_group!(benches, bench_server, bench_soak);
criterion_main!(benches);
