//! End-to-end tests against a live server on an ephemeral port: cache
//! semantics (repeat request → store hit, byte-identical body; a store
//! warmed by the CLI grids or a `tracecmp` run → every cell kind served
//! without recomputation), corpus-backed endpoints,
//! parser robustness (truncation, oversized bodies, bad JSON — 4xx,
//! never a crash), admission-gate shedding, closed-loop clients that stay
//! under the gate, requests that never wait on a poll, and graceful
//! drain, also for a server bound to an unspecified address and with
//! clients that keep their connections open by trickling bytes.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serve::{ServeConfig, Server, ServerState};
use sim::experiments::common::{cycle_grid, run_grid, run_matrix};
use sim::experiments::ExpEnv;
use sim::json::{self, Json};
use sim::store::CellStore;

/// A fresh temp dir for one test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-e2e-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The tiny environment all tests share: small budget, two threads.
fn tiny_env() -> ExpEnv {
    ExpEnv {
        scale: 0.02,
        ..ExpEnv::tiny()
    }
}

/// Polls `done` every 5 ms until it holds or `limit` has passed; returns
/// whether it held.
fn wait_for(limit: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

struct TestServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    state: Arc<ServerState>,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

impl TestServer {
    fn start(config: ServeConfig) -> Self {
        let server = Server::bind(config).expect("bind ephemeral port");
        let addr = server.local_addr().unwrap();
        let stop = server.stop_handle();
        let state = server.state();
        let join = std::thread::spawn(move || server.run());
        Self {
            addr,
            stop,
            state,
            join,
        }
    }

    fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.join
            .join()
            .expect("server thread exits cleanly")
            .expect("run returns Ok");
    }
}

/// One parsed response.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    fn json(&self) -> Json {
        json::parse(&self.body).unwrap_or_else(|e| {
            panic!(
                "response body is not JSON ({e:?}): {}",
                String::from_utf8_lossy(&self.body)
            )
        })
    }
}

/// Sends raw bytes, reads to EOF (the server always closes), parses.
fn raw_request(addr: std::net::SocketAddr, wire: &[u8]) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(wire).expect("send request");
    stream.shutdown(Shutdown::Write).ok();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    parse_reply(&raw)
}

fn parse_reply(raw: &[u8]) -> Reply {
    let text = String::from_utf8_lossy(raw);
    let (head, _) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in: {text}"));
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {status_line}"));
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let body_start = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .unwrap();
    Reply {
        status,
        headers,
        body: raw[body_start..].to_vec(),
    }
}

fn get(addr: std::net::SocketAddr, path: &str) -> Reply {
    raw_request(
        addr,
        format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes(),
    )
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> Reply {
    raw_request(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

#[test]
fn repeat_request_is_served_from_the_store_byte_identically() {
    let dir = temp_dir("repeat");
    let store = Arc::new(CellStore::open(&dir).unwrap());
    let server = TestServer::start(ServeConfig::ephemeral(tiny_env().with_store(store)));

    let req = "{\"benchmarks\": [\"gzip\"]}";
    let first = post(server.addr, "/v1/predict", req);
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-cache"), Some("miss"));

    let second = post(server.addr, "/v1/predict", req);
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(
        first.body, second.body,
        "cached reply must be byte-identical"
    );

    let metrics = get(server.addr, "/metrics").json();
    let cells = metrics.get("cells").expect("cells section");
    assert_eq!(cells.get("cache_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(cells.get("cache_misses").and_then(Json::as_u64), Some(1));

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_warmed_store_is_served_without_recomputation() {
    let dir = temp_dir("warm");
    let env = tiny_env();

    // Warm the store exactly as `experiments --store DIR` does: through
    // the grid runner with the shared cell keys.
    let warm_env = env
        .clone()
        .with_store(Arc::new(CellStore::open(&dir).unwrap()));
    let spec = prophet_critic::HybridSpec::tuned_headline();
    let bench = workloads::benchmark("gzip").unwrap();
    let programs = vec![(bench.clone(), bench.program())];
    let _ = run_matrix(std::slice::from_ref(&spec), &programs, &warm_env);

    // A fresh server over the same store answers the very first request
    // from cache: /v1/predict defaults to the tuned headline spec.
    let serve_env = env.with_store(Arc::new(CellStore::open(&dir).unwrap()));
    let server = TestServer::start(ServeConfig::ephemeral(serve_env));
    let reply = post(server.addr, "/v1/predict", "{\"benchmarks\": [\"gzip\"]}");
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.header("x-cache"),
        Some("hit"),
        "CLI-warmed store must serve without recomputation"
    );
    assert_eq!(server.state.metrics.cache_misses.load(Ordering::Relaxed), 0);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The `X-Cache` header of a 200 reply, failing loudly on any error.
fn x_cache(reply: &Reply) -> &str {
    assert_eq!(
        reply.status,
        200,
        "{}",
        String::from_utf8_lossy(&reply.body)
    );
    reply
        .header("x-cache")
        .expect("cell-backed reply carries X-Cache")
}

#[test]
fn tracecmp_warmed_store_serves_every_corpus_cell() {
    let store_dir = temp_dir("tracecmp-store");
    let corpus_dir = temp_dir("tracecmp-corpus");
    let env = tiny_env();

    // Warm the store with a whole tournament, and record a corpus at the
    // same budget: its manifest checksums are the tournament's.
    let warm_env = env
        .clone()
        .with_store(Arc::new(CellStore::open(&store_dir).unwrap()));
    let _ = sim::experiments::tracecmp::run_with_report(&warm_env);
    let bench = workloads::benchmark("gzip").unwrap();
    replay::record_corpus(&corpus_dir, std::slice::from_ref(&bench), env.uop_budget()).unwrap();

    let mut config =
        ServeConfig::ephemeral(env.with_store(Arc::new(CellStore::open(&store_dir).unwrap())));
    config.corpus = Some(corpus_dir.clone());
    let server = TestServer::start(config);

    let hybrid = "{\"prophet\": \"gshare\", \"prophet_budget\": \"8KB\", \
                  \"critic\": \"t.gshare\", \"critic_budget\": \"8KB\"}";
    let requests = [
        (
            "/v1/replay",
            "{\"predictor\": \"gshare\", \"trace\": \"gzip\"}".to_string(),
        ),
        (
            "/v1/tracecmp-cell",
            "{\"trace\": \"gzip\", \"stage\": \"replay\", \"entrant\": \"gshare\"}".to_string(),
        ),
        (
            "/v1/tracecmp-cell",
            "{\"trace\": \"gzip\", \"stage\": \"cycle\", \"entrant\": \"gshare\"}".to_string(),
        ),
        (
            "/v1/tracecmp-cell",
            format!("{{\"trace\": \"gzip\", \"stage\": \"accuracy\", \"entrant\": {hybrid}}}"),
        ),
        (
            "/v1/tracecmp-cell",
            format!("{{\"trace\": \"gzip\", \"stage\": \"cycle\", \"entrant\": {hybrid}}}"),
        ),
    ];
    for (path, body) in &requests {
        let reply = post(server.addr, path, body);
        assert_eq!(x_cache(&reply), "hit", "{path} {body}");
    }
    let metrics = &server.state.metrics;
    assert_eq!(metrics.cache_hits.load(Ordering::Relaxed), 5);
    assert_eq!(metrics.cache_misses.load(Ordering::Relaxed), 0);

    server.shutdown();
    std::fs::remove_dir_all(&store_dir).ok();
    std::fs::remove_dir_all(&corpus_dir).ok();
}

#[test]
fn grid_warmed_store_serves_predict_with_cycle_cells() {
    let dir = temp_dir("grid-warm");
    let env = tiny_env();

    // The headline's two grids: accuracy (run_grid) and cycle.
    let warm_env = env
        .clone()
        .with_store(Arc::new(CellStore::open(&dir).unwrap()));
    let spec = prophet_critic::HybridSpec::tuned_headline();
    let programs = warm_env.named_programs(&["swim", "tpcc"]);
    let benches: Vec<_> = programs.iter().map(|(b, _)| b.clone()).collect();
    let _ = run_grid(std::slice::from_ref(&spec), &programs, &warm_env);
    let _ = cycle_grid(&warm_env, std::slice::from_ref(&spec), &benches);

    let serve_env = env.with_store(Arc::new(CellStore::open(&dir).unwrap()));
    let server = TestServer::start(ServeConfig::ephemeral(serve_env));
    let reply = post(
        server.addr,
        "/v1/predict",
        "{\"benchmarks\": [\"swim\", \"tpcc\"], \"cycle\": true}",
    );
    assert_eq!(x_cache(&reply), "hit");
    assert!(reply.json().get("cycle").is_some());
    let metrics = &server.state.metrics;
    assert_eq!(metrics.cache_hits.load(Ordering::Relaxed), 4);
    assert_eq!(metrics.cache_misses.load(Ordering::Relaxed), 0);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corpus_endpoints_replay_and_cache() {
    let store_dir = temp_dir("corpus-store");
    let corpus_dir = temp_dir("corpus");
    std::fs::create_dir_all(&corpus_dir).unwrap();
    let env = tiny_env();
    let bench = workloads::benchmark("gzip").unwrap();
    replay::record_corpus(&corpus_dir, std::slice::from_ref(&bench), env.uop_budget()).unwrap();

    let mut config =
        ServeConfig::ephemeral(env.with_store(Arc::new(CellStore::open(&store_dir).unwrap())));
    config.corpus = Some(corpus_dir.clone());
    let server = TestServer::start(config);

    let listing = get(server.addr, "/v1/corpus");
    assert_eq!(listing.status, 200);
    let traces = listing
        .json()
        .get("traces")
        .and_then(Json::as_array)
        .map(<[Json]>::len);
    assert_eq!(traces, Some(1));

    let req = "{\"predictor\": \"gshare\", \"trace\": \"gzip\"}";
    let first = post(server.addr, "/v1/replay", req);
    assert_eq!(
        first.status,
        200,
        "{}",
        String::from_utf8_lossy(&first.body)
    );
    assert_eq!(first.header("x-cache"), Some("miss"));
    let second = post(server.addr, "/v1/replay", req);
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(first.body, second.body);
    assert!(second.json().get("misp_per_kuops").is_some());

    // A tournament cell for a hybrid entrant re-executes the benchmark.
    let cell = post(
        server.addr,
        "/v1/tracecmp-cell",
        "{\"trace\": \"gzip\", \"stage\": \"accuracy\", \"entrant\": \
         {\"prophet\": \"gshare\", \"prophet_budget\": \"8KB\", \
          \"critic\": \"t.gshare\", \"critic_budget\": \"8KB\"}}",
    );
    assert_eq!(cell.status, 200, "{}", String::from_utf8_lossy(&cell.body));
    let again = post(
        server.addr,
        "/v1/tracecmp-cell",
        "{\"trace\": \"gzip\", \"stage\": \"accuracy\", \"entrant\": \
         {\"prophet\": \"gshare\", \"prophet_budget\": \"8KB\", \
          \"critic\": \"t.gshare\", \"critic_budget\": \"8KB\"}}",
    );
    assert_eq!(again.header("x-cache"), Some("hit"));

    // Unknown trace and quarantine-free corpus behave.
    let missing = post(
        server.addr,
        "/v1/replay",
        "{\"predictor\": \"gshare\", \"trace\": \"nope\"}",
    );
    assert_eq!(missing.status, 404);

    server.shutdown();
    std::fs::remove_dir_all(&store_dir).ok();
    std::fs::remove_dir_all(&corpus_dir).ok();
}

#[test]
fn malformed_requests_get_4xx_and_never_kill_the_server() {
    let server = TestServer::start(ServeConfig::ephemeral(tiny_env()));

    // Truncated request line (connection closed mid-line).
    let truncated = raw_request(server.addr, b"GET /metr");
    assert_eq!(truncated.status, 400);

    // Declared body never arrives.
    let short_body = raw_request(
        server.addr,
        b"POST /v1/predict HTTP/1.1\r\ncontent-length: 50\r\n\r\n{}",
    );
    assert_eq!(short_body.status, 400);

    // Body over the cap is refused before reading it.
    let huge = raw_request(
        server.addr,
        b"POST /v1/predict HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n",
    );
    assert_eq!(huge.status, 413);

    // Unparsable JSON, wrong shapes, unknown routes and methods.
    assert_eq!(post(server.addr, "/v1/predict", "{oops").status, 400);
    assert_eq!(post(server.addr, "/v1/predict", "[1, 2]").status, 400);
    assert_eq!(
        post(
            server.addr,
            "/v1/predict",
            "{\"benchmarks\": [\"no-such\"]}"
        )
        .status,
        404
    );
    assert_eq!(post(server.addr, "/v1/nope", "{}").status, 404);
    assert_eq!(get(server.addr, "/v1/predict").status, 405);
    assert_eq!(
        post(server.addr, "/v1/experiment", "{\"id\": \"fig99\"}").status,
        404
    );

    // An oversized request line.
    let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(8192));
    assert_eq!(raw_request(server.addr, long_target.as_bytes()).status, 414);

    // The server survived all of it.
    assert_eq!(get(server.addr, "/healthz").status, 200);
    let metrics = get(server.addr, "/metrics").json();
    let errors = metrics
        .get("requests")
        .and_then(|r| r.get("client_errors"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(errors >= 8, "client errors recorded: {errors}");

    server.shutdown();
}

#[test]
fn admission_gate_sheds_with_retry_after_and_drain_finishes_work() {
    let mut config = ServeConfig::ephemeral(tiny_env());
    config.max_inflight = 1;
    let server = TestServer::start(config);

    // Hold the only slot: open a connection and send just the request
    // line, leaving the worker blocked reading headers.
    let mut holder = TcpStream::connect(server.addr).unwrap();
    holder.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    assert!(
        wait_for(Duration::from_secs(10), || {
            server.state.metrics.inflight.load(Ordering::SeqCst) == 1
        }),
        "the held request takes the only admission slot"
    );

    // The next connection is shed without queueing.
    let shed = get(server.addr, "/metrics");
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("retry-after"), Some("1"));

    // Request the drain while the held request is still in flight …
    server.stop.store(true, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(200));
    // … then complete it: the drain must wait for and answer it.
    holder.write_all(b"\r\n").unwrap();
    holder.shutdown(Shutdown::Write).ok();
    let mut raw = Vec::new();
    holder
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    holder.read_to_end(&mut raw).unwrap();
    assert_eq!(parse_reply(&raw).status, 200);

    server
        .join
        .join()
        .expect("server thread exits cleanly")
        .expect("run returns Ok");
    let metrics = &server.state.metrics;
    assert_eq!(metrics.requests_shed.load(Ordering::SeqCst), 1);
    // The held request and the shed one: the stop watcher's wake
    // connection is never counted.
    assert_eq!(metrics.requests_total.load(Ordering::SeqCst), 2);
}

#[test]
fn closed_loop_clients_at_the_gate_are_never_shed() {
    const CLIENTS: usize = 4;
    const EACH: usize = 100;
    let dir = temp_dir("closed-loop");
    let store = Arc::new(CellStore::open(&dir).unwrap());
    let mut config = ServeConfig::ephemeral(tiny_env().with_store(store));
    config.max_inflight = CLIENTS as u64;
    let server = TestServer::start(config);

    let req = "{\"benchmarks\": [\"gzip\"]}";
    let warm = post(server.addr, "/v1/predict", req);
    assert_eq!(warm.status, 200);

    // Each client sends its next request as soon as it has read the
    // previous reply, so it reconnects while its last worker may still be
    // waiting for the close: a slot held past the response would shed it.
    let addr = server.addr;
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                for _ in 0..EACH {
                    assert_eq!(get(addr, "/healthz").status, 200);
                    let reply = post(addr, "/v1/predict", req);
                    assert_eq!(reply.status, 200);
                    assert_eq!(reply.header("x-cache"), Some("hit"));
                    assert!(reply.body == warm.body, "warm replies are byte-identical");
                }
            });
        }
    });

    let state = Arc::clone(&server.state);
    server.shutdown();
    assert_eq!(state.metrics.requests_shed.load(Ordering::SeqCst), 0);
    assert_eq!(
        state.metrics.requests_total.load(Ordering::SeqCst),
        (1 + 2 * CLIENTS * EACH) as u64
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sequential_requests_do_not_wait_on_a_poll() {
    let server = TestServer::start(ServeConfig::ephemeral(tiny_env()));
    let start = Instant::now();
    for _ in 0..40 {
        assert_eq!(get(server.addr, "/healthz").status, 200);
    }
    let took = start.elapsed();
    // A 25 ms accept poll would make this at least a second.
    assert!(
        took < Duration::from_millis(400),
        "40 sequential requests took {took:?}"
    );
    server.shutdown();
}

#[test]
fn server_bound_to_an_unspecified_address_stops_promptly() {
    let mut config = ServeConfig::ephemeral(tiny_env());
    config.addr = "0.0.0.0:0".to_string();
    let server = TestServer::start(config);
    let loopback = std::net::SocketAddr::from(([127, 0, 0, 1], server.addr.port()));
    assert_eq!(get(loopback, "/healthz").status, 200);

    // The stop watcher wakes `accept` through the loopback address.
    server.stop.store(true, Ordering::SeqCst);
    assert!(
        wait_for(Duration::from_secs(5), || server.join.is_finished()),
        "run returns within 5 s of the stop flag"
    );
    server
        .join
        .join()
        .expect("server thread exits cleanly")
        .expect("run returns Ok");
}

#[test]
fn trickling_clients_cannot_hold_the_drain_open() {
    const TRICKLERS: usize = 16;
    let mut config = ServeConfig::ephemeral(tiny_env());
    config.max_inflight = 4;
    let server = TestServer::start(config);
    let addr = server.addr;

    std::thread::scope(|scope| {
        // Each client reads its reply, then keeps the connection open by
        // sending a byte every 50 ms, until the server has closed it or
        // 10 s have passed. Its worker is lingering, past its slot.
        for _ in 0..TRICKLERS {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
                .expect("send request");
            let mut raw = Vec::new();
            stream.read_to_end(&mut raw).expect("read response");
            assert_eq!(parse_reply(&raw).status, 200);
            scope.spawn(move || {
                let until = Instant::now() + Duration::from_secs(10);
                while Instant::now() < until && stream.write_all(b"x").is_ok() {
                    std::thread::sleep(Duration::from_millis(50));
                }
            });
        }
        // Lingering workers hold no admission slot …
        assert_eq!(get(addr, "/healthz").status, 200);
        // … and each lingers for at most 500 ms in all, so the drain
        // finishes long before the clients stop sending.
        server.stop.store(true, Ordering::SeqCst);
        assert!(
            wait_for(Duration::from_secs(3), || server.join.is_finished()),
            "run returns within 3 s of the stop flag while {TRICKLERS} clients trickle"
        );
    });
    server
        .join
        .join()
        .expect("server thread exits cleanly")
        .expect("run returns Ok");
    assert_eq!(server.state.metrics.requests_shed.load(Ordering::SeqCst), 0);
}
