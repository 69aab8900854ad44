//! The `serve` workload: the service path and the only cell-store traffic.
//!
//! Each round starts an in-process `serve::Server` on an ephemeral port
//! over a fresh `CellStore`, with one grid worker, and drives it from a
//! closed loop of two client connections: every client sends its next
//! request only after the previous reply, as the CI smoke, the dashboard
//! and scripts do. Every distinct `(spec, benchmark)` `POST /v1/predict`
//! with `"cycle": true` goes out once cold (the cells are computed and
//! written), then once warm (the cells are only read).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use prophet_critic::HybridSpec;
use serve::json::{self, Json};
use serve::{ServeConfig, Server, ServerState};
use sim::experiments::common::{accuracy_cell_key, cycle_cell_key, select_benchmarks, BenchSet};
use sim::store::CellStore;
use sim::{AccuracyResult, CycleResult};
use workloads::rng::SmallRng;
use workloads::Benchmark;

use crate::drive::{self, ns_since, Sample, Timing};
use crate::report::Report;
use crate::spans::{by_label, total_ns, Recorder, Span};

/// Budget multiplier; the environment's floor makes it 20 K uops a cell.
const SCALE: f64 = 0.01;

/// Client connections in the closed loop.
const CLIENTS: u32 = 2;

/// One request of the mix.
struct Req {
    /// Position in the seed's unshuffled mix.
    id: usize,
    label: String,
    spec: HybridSpec,
    bench: Benchmark,
    body: Vec<u8>,
}

fn spec_json(spec: &HybridSpec) -> String {
    let mut s = format!(
        "{{\"prophet\": \"{}\", \"prophet_budget\": \"{}\"",
        spec.prophet.label(),
        spec.prophet_budget
    );
    if spec.critic != prophet_critic::CriticKind::None {
        s.push_str(&format!(
            ", \"critic\": \"{}\", \"critic_budget\": \"{}\", \"future_bits\": {}, \
             \"confident_override\": {}",
            spec.critic.label(),
            spec.critic_budget,
            spec.future_bits,
            spec.confident_override
        ));
    }
    s.push('}');
    s
}

fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
}

/// The request mix for `seed`: every exec spec on every fast-set
/// benchmark. Seed 0 keeps the spec and benchmark order and the lineup's
/// future bits; other seeds shuffle both orders and redraw the future
/// bits of `tracecmp`'s four pairs.
fn requests(seed: u64) -> Vec<Req> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut specs = crate::exec_path::specs();
    let mut benches = select_benchmarks(BenchSet::Fast);
    if seed != 0 {
        for (_, spec) in specs.iter_mut().skip(2) {
            spec.future_bits = [2, 4, 8, 12][(rng.next_u64() % 4) as usize];
        }
        shuffle(&mut specs, &mut rng);
        shuffle(&mut benches, &mut rng);
    }
    let mut out = Vec::new();
    for (name, spec) in &specs {
        for bench in &benches {
            let body = format!(
                "{{\"spec\": {}, \"benchmarks\": [\"{}\"], \"cycle\": true}}",
                spec_json(spec),
                bench.name
            );
            out.push(Req {
                id: out.len(),
                label: format!("{name}x{}", bench.name),
                spec: *spec,
                bench: bench.clone(),
                body: body.into_bytes(),
            });
        }
    }
    out
}

/// One parsed HTTP response.
#[derive(Clone, Debug, PartialEq)]
struct Resp {
    status: u16,
    x_cache: Option<String>,
    body: Vec<u8>,
}

/// Each request's latency (ns) and response (`None` on a transport or
/// framing failure), in request order.
type Results = Vec<(f64, Option<Resp>)>;

fn parse_response(raw: &[u8]) -> Option<Resp> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..split]).ok()?;
    let body = raw[split + 4..].to_vec();
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut x_cache = None;
    let mut length = None;
    for line in lines {
        let (k, v) = line.split_once(':')?;
        match k.trim().to_ascii_lowercase().as_str() {
            "x-cache" => x_cache = Some(v.trim().to_string()),
            "content-length" => length = v.trim().parse::<usize>().ok(),
            _ => {}
        }
    }
    (length? == body.len()).then_some(Resp {
        status,
        x_cache,
        body,
    })
}

/// One request on its own connection (the server closes after each
/// reply); `None` on any transport or framing failure.
fn round_trip(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> Option<Resp> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(30))).ok()?;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).ok()?;
    s.write_all(body).ok()?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).ok()?;
    parse_response(&raw)
}

/// A running server over a fresh store.
struct Round {
    addr: SocketAddr,
    state: Arc<ServerState>,
    store: Arc<CellStore>,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
}

/// Opens a fresh store under `dir`, binds the server, fills its program
/// memo, and starts the accept loop (the workload's set-up).
fn start(dir: PathBuf, rec: &mut Recorder) -> Round {
    let _ = std::fs::remove_dir_all(&dir);
    let store = rec.span("store::CellStore::open", String::new, |_| {
        Arc::new(CellStore::open(&dir).expect("store directory is writable"))
    });
    let env = drive::env(SCALE).with_store(Arc::clone(&store));
    let server = rec.span("serve::Server::bind", String::new, |_| {
        Server::bind(ServeConfig::ephemeral(env)).expect("loopback bind")
    });
    let addr = server.local_addr().expect("bound socket has an address");
    let state = server.state();
    // A long-running server has synthesized its programs already; cold
    // requests here miss only the store.
    for bench in select_benchmarks(BenchSet::Fast) {
        rec.span(
            "workloads::program",
            || bench.name.clone(),
            |_| state.program(&bench),
        );
    }
    let stop = server.stop_handle();
    let thread = std::thread::spawn(move || server.run());
    Round {
        addr,
        state,
        store,
        stop,
        thread,
        dir,
    }
}

impl Round {
    fn finish(self) -> bool {
        self.stop.store(true, Ordering::SeqCst);
        let ok = matches!(self.thread.join(), Ok(Ok(())));
        let _ = std::fs::remove_dir_all(&self.dir);
        ok
    }
}

/// Sends every request once from a closed loop of [`CLIENTS`]
/// connections; returns each request's latency and response, in request
/// order, plus the client threads' spans.
fn closed_loop(
    addr: SocketAddr,
    reqs: &[Req],
    origin: Instant,
    traced: bool,
) -> (Results, Vec<Vec<Span>>) {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, f64, Option<Resp>)> = Vec::new();
    let mut spans = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut rec = Recorder::new(traced, origin, client + 1);
                    let mut done = Vec::new();
                    rec.span("pass::serve", String::new, |rec| loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(req) = reqs.get(i) else { break };
                        let t0 = Instant::now();
                        let resp = rec.span(
                            "serve::round_trip",
                            || req.label.clone(),
                            |_| round_trip(addr, "POST", "/v1/predict", &req.body),
                        );
                        done.push((i, ns_since(t0), resp));
                    });
                    (done, rec.take())
                })
            })
            .collect();
        for h in handles {
            let (done, s) = h.join().expect("client thread");
            out.extend(done);
            spans.push(s);
        }
    });
    out.sort_by_key(|(i, _, _)| *i);
    (out.into_iter().map(|(_, ns, r)| (ns, r)).collect(), spans)
}

/// Checks a phase's responses: all `200`; cold ones `X-Cache: miss`;
/// warm ones `X-Cache: hit` and byte-identical to the cold body.
fn check_phase(
    results: &[(f64, Option<Resp>)],
    cold: Option<&[(f64, Option<Resp>)]>,
    report: &mut Report,
) {
    for (i, (_, r)) in results.iter().enumerate() {
        let ok = r.as_ref().is_some_and(|r| {
            let want = if cold.is_some() { "hit" } else { "miss" };
            let same = cold.is_none_or(|c| c[i].1.as_ref().is_some_and(|c| c.body == r.body));
            r.status == 200 && r.x_cache.as_deref() == Some(want) && same
        });
        report.check(ok);
    }
}

fn store_dir(tag: &str) -> PathBuf {
    Path::new(".bench_out").join(format!("store-{}-{tag}", std::process::id()))
}

/// One round: set-up, cold phase, warm phase. Returns the set-up time, the
/// cold and warm results, and the still-running server.
fn round(
    reqs: &[Req],
    tag: &str,
    rec: &mut Recorder,
    origin: Instant,
    report: &mut Report,
) -> (f64, Results, Results, Round) {
    let (server, setup) = drive::timed_setup(|| start(store_dir(tag), rec));
    let (cold, spans) = closed_loop(server.addr, reqs, origin, rec.enabled());
    for s in spans {
        rec.absorb(s);
    }
    check_phase(&cold, None, report);
    let (warm, spans) = closed_loop(server.addr, reqs, origin, rec.enabled());
    for s in spans {
        rec.absorb(s);
    }
    check_phase(&warm, Some(&cold), report);
    (setup, cold, warm, server)
}

fn samples(reqs: &[Req], results: &[(f64, Option<Resp>)]) -> Vec<Sample> {
    reqs.iter()
        .zip(results)
        .map(|(req, (ns, _))| Sample {
            cell: req.id,
            ns: *ns,
            work: 1.0,
        })
        .collect()
}

/// The untraced run: one warm-up round, then rounds until `seconds` have
/// passed. Each round sends the mix in a fresh seeded order: a closed
/// loop's wait for the accept loop depends on the request before, so
/// varying the order averages that pairing out.
pub fn measure(seed: u64, seconds: f64, report: &mut Report) -> Timing {
    let mut reqs = requests(seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E55_1DE5);
    let origin = Instant::now();
    let mut off = Recorder::new(false, origin, 0);
    let mut timing = Timing::default();
    let (_, _, _, server) = round(&reqs, "warmup", &mut off, origin, report);
    report.require(server.finish(), "the server stops cleanly");
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed().as_secs_f64() < seconds {
        shuffle(&mut reqs, &mut rng);
        let (setup, cold, warm, server) = round(&reqs, &n.to_string(), &mut off, origin, report);
        report.require(server.finish(), "the server stops cleanly");
        timing.setups.push(setup);
        timing.slow.extend(samples(&reqs, &cold));
        timing.fast.extend(samples(&reqs, &warm));
        n += 1;
    }
    report.note(format!(
        "serve: closed loop of {CLIENTS} clients, {} distinct requests per phase, {n} rounds",
        reqs.len()
    ));
    timing
}

/// Counters from the server's `/metrics`: total, shed and errored
/// requests.
fn server_counts(addr: SocketAddr) -> Option<(f64, f64, f64)> {
    let resp = round_trip(addr, "GET", "/metrics", b"")?;
    let doc = json::parse(&resp.body).ok()?;
    let req = doc.get("requests")?;
    let n = |k: &str| match req.get(k) {
        Some(Json::Num(v)) => Some(*v),
        _ => None,
    };
    Some((
        n("total")?,
        n("shed")?,
        n("client_errors")? + n("server_errors")?,
    ))
}

/// The traced run's share for this path: an untraced and a traced round
/// (the difference is the tracing overhead), then isolation passes over
/// the traced round's warm requests: in-process `routes::handle`, request
/// body parsing, and store `get`/`put` on the round's keys.
pub fn ledger(seed: u64, rec: &mut Recorder, origin: Instant, report: &mut Report) {
    let reqs = requests(seed);
    let mut off = Recorder::new(false, origin, 0);
    let (_, cold, warm, server) = round(&reqs, "plain", &mut off, origin, report);
    report.require(server.finish(), "the server stops cleanly");
    let plain_ns: f64 = cold.iter().chain(&warm).map(|(ns, _)| ns).sum();
    let (_, cold, warm, server) = round(&reqs, "traced", rec, origin, report);
    let traced_ns: f64 = cold.iter().chain(&warm).map(|(ns, _)| ns).sum();
    crate::add_pass_ledger(report, rec.spans(), "serve", plain_ns, traced_ns);

    let counts = server_counts(server.addr);
    report.require(counts.is_some(), "/metrics answers with request counters");
    let (requests, shed, errors) = counts.unwrap_or_default();
    report.add("serve.requests", "count", requests);
    report.add("serve.shed", "count", shed);
    report.add("serve.errors", "count", errors);
    report.add("store.hits", "count", server.store.hits() as f64);
    report.add("store.misses", "count", server.store.misses() as f64);

    // In-process handling of the warm requests.
    for (req, (_, c)) in reqs.iter().zip(&cold) {
        let request = serve::http::Request {
            method: "POST".into(),
            target: "/v1/predict".into(),
            headers: Vec::new(),
            body: req.body.clone(),
        };
        let outcome = rec.span(
            "serve::routes::handle",
            || req.label.clone(),
            |_| serve::routes::handle(&server.state, &request),
        );
        let same = c.as_ref().is_some_and(|c| c.body == outcome.response.body);
        report.check(outcome.response.status == 200 && same);
    }
    let n = reqs.len() as f64;
    let handle_ns = total_ns(rec.spans(), "serve::routes::handle") as f64 / n;
    report.add("serve.handle_us", "us", handle_ns / 1e3);
    let warm_rtt: f64 = warm.iter().map(|(ns, _)| ns).sum::<f64>() / n;
    report.add("serve.transport_ms", "ms", (warm_rtt - handle_ns) / 1e6);

    // Request body parsing, repeated for timer resolution.
    const PARSES: usize = 100;
    for req in &reqs {
        rec.span(
            "serve::json::parse",
            || req.label.clone(),
            |_| {
                for _ in 0..PARSES {
                    std::hint::black_box(json::parse(std::hint::black_box(&req.body)).is_ok());
                }
            },
        );
    }
    let parse_ns = total_ns(rec.spans(), "serve::json::parse") as f64 / (n * PARSES as f64);
    report.add("serve.json_parse_us", "us", parse_ns / 1e3);

    // Store get/put re-issued on the round's keys in a scratch store.
    let budget = server.state.env.uop_budget();
    let scratch_dir = store_dir("scratch");
    let _ = std::fs::remove_dir_all(&scratch_dir);
    let scratch = CellStore::open(&scratch_dir).expect("scratch store directory is writable");
    for req in &reqs {
        let acc_key = accuracy_cell_key(&req.spec, &req.bench, budget);
        let cyc_key = cycle_cell_key(&req.spec, &req.bench, budget);
        let acc: Option<AccuracyResult> = server.store.get(&acc_key);
        let cyc: Option<CycleResult> = server.store.get(&cyc_key);
        let (Some(acc), Some(cyc)) = (acc, cyc) else {
            report.require(false, "the served store holds every request's cells");
            continue;
        };
        let put = rec.span(
            "store::put",
            || req.label.clone(),
            |_| scratch.put(&acc_key, &acc).is_ok() && scratch.put(&cyc_key, &cyc).is_ok(),
        );
        let got = rec.span(
            "store::get",
            || req.label.clone(),
            |_| {
                (
                    scratch.get::<AccuracyResult>(&acc_key),
                    scratch.get::<CycleResult>(&cyc_key),
                )
            },
        );
        report.require(
            put && got == (Some(acc), Some(cyc)),
            "the scratch store returns the cells put in it",
        );
    }
    let _ = std::fs::remove_dir_all(&scratch_dir);
    report.require(server.finish(), "the server stops cleanly");
    let spans = rec.spans();
    let cells = 2.0 * n;
    report.add(
        "store.put_us",
        "us",
        total_ns(spans, "store::put") as f64 / cells / 1e3,
    );
    report.add(
        "store.get_us",
        "us",
        total_ns(spans, "store::get") as f64 / cells / 1e3,
    );
    let rtt = by_label(spans, "serve::round_trip");
    report.note(format!(
        "serve: {} traced round trips over {} distinct requests",
        rtt.values().map(|v| v.1).sum::<u64>(),
        rtt.len()
    ));
}
