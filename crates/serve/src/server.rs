//! The TCP accept loop: bounded concurrency, graceful drain, and the
//! Unix signal hook.
//!
//! `accept` blocks, so a waiting connection is taken the moment it
//! arrives. A watcher thread checks the stop handle and the signal flag
//! every 25 ms; once either is set, it connects to the server's own
//! address to wake `accept`, so shutdown is noticed within 25 ms. The
//! loop drops that wake connection without counting it. Each accepted
//! connection is handled on a scoped worker thread; the scope's join is
//! the drain — when `SIGTERM`/`SIGINT` (or a test's stop handle) flips
//! the flag, the loop stops accepting, already-running cells finish, and
//! `run` returns only after every worker has written its response.
//!
//! Admission control is a simple gate: at `max_inflight` concurrent
//! requests, new connections are shed immediately with
//! `503 + Retry-After: 1` — the server never queues unbounded work
//! behind multi-second simulation cells. A request holds its admission
//! slot until its response is built, not while the worker waits for the
//! client to close; that wait has one deadline of 500 ms in all, so a
//! worker outlives its slot by at most that long.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sim::experiments::ExpEnv;

use crate::http::{read_request, HttpError, Response};
use crate::routes::{self, Outcome};
use crate::state::{CellCounts, CorpusState, ServerState};

/// How the server is configured at startup.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Concurrent requests beyond which new connections are shed
    /// with `503`.
    pub max_inflight: u64,
    /// The experiment environment (scale, threads, cell store).
    pub env: ExpEnv,
    /// Corpus directory to load and verify at startup, if any.
    pub corpus: Option<PathBuf>,
}

impl ServeConfig {
    /// A localhost config on an ephemeral port with the given
    /// environment — what the tests use.
    #[must_use]
    pub fn ephemeral(env: ExpEnv) -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 8,
            env,
            corpus: None,
        }
    }
}

/// A bound server, ready to run.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    stop: Arc<AtomicBool>,
    max_inflight: u64,
}

impl Server {
    /// Binds the listener and loads (and integrity-checks) the corpus.
    ///
    /// # Errors
    ///
    /// Bind failures, and corpus manifests that cannot be loaded
    /// (mapped to `InvalidData`).
    pub fn bind(config: ServeConfig) -> std::io::Result<Self> {
        let corpus = match &config.corpus {
            None => None,
            Some(dir) => Some(
                CorpusState::load(dir)
                    .map_err(|msg| std::io::Error::new(std::io::ErrorKind::InvalidData, msg))?,
            ),
        };
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Self {
            listener,
            state: Arc::new(ServerState::new(config.env, corpus)),
            stop: Arc::new(AtomicBool::new(false)),
            max_inflight: config.max_inflight.max(1),
        })
    }

    /// The bound address (resolves the ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the socket has gone away.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (tests read metrics through it).
    #[must_use]
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// A handle that stops the accept loop when set to `true` — the
    /// programmatic equivalent of `SIGTERM`.
    #[must_use]
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Runs until the stop handle or a termination signal flips; drains
    /// in-flight requests before returning.
    ///
    /// # Errors
    ///
    /// Fatal listener errors, and a stop watcher thread that cannot be
    /// started (transient `accept` errors are logged and survived).
    pub fn run(self) -> std::io::Result<()> {
        let (state, stop) = (&self.state, &self.stop);
        let wake = wake_addr(self.listener.local_addr()?);
        std::thread::scope(|scope| {
            // Dropped when the loop ends, by `break` or by a panic; the
            // watcher then returns, so the scope's join never waits on it.
            let (_loop_alive, loop_ended) = mpsc::channel::<()>();
            std::thread::Builder::new()
                .spawn_scoped(scope, move || watch(stop, wake, &loop_ended))?;
            loop {
                let accepted = self.listener.accept();
                // Checked before the gate, so the watcher's wake
                // connection is dropped here: never shed, never recorded.
                if stop_requested(stop) {
                    break;
                }
                match accepted {
                    Ok((stream, _peer)) => {
                        // Shed before spawning: the gate must account for
                        // the request it admits, so increment happens here
                        // (not in the worker) to close the accept race.
                        let inflight = state.metrics.inflight.load(Ordering::SeqCst);
                        if inflight >= self.max_inflight {
                            shed(state, stream);
                            continue;
                        }
                        state.metrics.inflight.fetch_add(1, Ordering::SeqCst);
                        let worker = std::thread::Builder::new()
                            .spawn_scoped(scope, move || handle_connection(state, stream));
                        if let Err(e) = worker {
                            // The connection went down with the closure
                            // that owned it: the client sees a close.
                            state.metrics.inflight.fetch_sub(1, Ordering::SeqCst);
                            eprintln!("cannot start a worker (connection dropped): {e}");
                        }
                    }
                    Err(e) => {
                        // Most often a resource limit (EMFILE): retrying at
                        // once would only spin.
                        eprintln!("accept error (continuing): {e}");
                        std::thread::sleep(WATCH_INTERVAL);
                    }
                }
            }
            // Scope exit joins the watcher and every worker: the graceful
            // drain.
            Ok(())
        })
    }
}

/// How often the stop watcher checks for shutdown and, once it is
/// requested, tries to connect to wake the blocked `accept`.
const WATCH_INTERVAL: Duration = Duration::from_millis(25);

/// Whether shutdown has been requested, by the stop handle or a signal.
fn stop_requested(stop: &AtomicBool) -> bool {
    stop.load(Ordering::SeqCst) || signal::shutdown_requested()
}

/// The stop watcher: once shutdown is requested, connects to `wake`
/// until one attempt gets through. That connection waits in the
/// listener's queue, so the blocked `accept` returns and the loop sees
/// the stop. Each attempt is bounded by [`WATCH_INTERVAL`]. The watcher
/// also returns once the loop has ended (`loop_ended` disconnects), so a
/// panicking loop cannot leave it waiting.
fn watch(stop: &AtomicBool, wake: SocketAddr, loop_ended: &Receiver<()>) {
    while loop_ended.recv_timeout(WATCH_INTERVAL) == Err(RecvTimeoutError::Timeout) {
        if stop_requested(stop) && TcpStream::connect_timeout(&wake, WATCH_INTERVAL).is_ok() {
            return;
        }
    }
}

/// The address that wakes `accept`: the listener's own, with an
/// unspecified IP (`0.0.0.0`, `[::]`) replaced by the loopback address of
/// the same family.
fn wake_addr(mut bound: SocketAddr) -> SocketAddr {
    match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => bound.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => bound.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    bound
}

/// How long [`linger_close`] may wait, in all, for the client to close.
const LINGER: Duration = Duration::from_millis(500);

/// Closes a connection without resetting it: writing a response while
/// unread request bytes sit in the kernel buffer would turn the close
/// into a TCP RST, destroying the buffered response on the client side
/// (sheds and early 4xxs answer before consuming the request). Shutting
/// down the write side and draining briefly makes the close a clean FIN.
///
/// The drain has one deadline, [`LINGER`] from the shutdown, however the
/// client paces its bytes: a worker lingers without an admission slot,
/// so only this deadline bounds how long a peer can keep it alive.
fn linger_close(mut stream: TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        // `set_read_timeout` rejects a zero timeout: the time is up.
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
        // A hostile client streaming fast must not spend the worker's
        // time either.
        if drained > 1 << 20 {
            break;
        }
    }
}

/// Rejects a connection at the admission gate: `503` with `Retry-After`,
/// without reading the request (the whole point is to not spend time on
/// it).
fn shed(state: &ServerState, mut stream: TcpStream) {
    let start = Instant::now();
    state.metrics.requests_shed.fetch_add(1, Ordering::Relaxed);
    let err = HttpError::new(503, "server at max in-flight requests");
    let resp = Response::from_error(&err);
    if let Err(e) = resp.write_to(&mut stream) {
        eprintln!("write error on shed response: {e}");
    }
    let outcome = Outcome {
        response: resp,
        subject: "(shed)".to_string(),
        cells: CellCounts::default(),
        misp_per_kuops: None,
        upc: None,
        bubbles: None,
    };
    state
        .metrics
        .record(outcome.summary("(shed)", start.elapsed()));
    linger_close(stream);
}

/// Serves one connection end to end: parse, route (panic-isolated), free
/// the admission slot taken at the gate, respond, record, close.
fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    let start = Instant::now();
    let (endpoint, outcome) = match read_request(&stream) {
        Err(e) => (
            "(parse)".to_string(),
            Outcome {
                response: Response::from_error(&e),
                subject: e.message.clone(),
                cells: CellCounts::default(),
                misp_per_kuops: None,
                upc: None,
                bubbles: None,
            },
        ),
        Ok(req) => {
            let outcome =
                match std::panic::catch_unwind(AssertUnwindSafe(|| routes::handle(state, &req))) {
                    Ok(outcome) => outcome,
                    Err(panic) => {
                        let what = panic_message(&panic);
                        eprintln!("handler panic on {}: {what}", req.target);
                        Outcome {
                            response: Response::from_error(&HttpError::new(
                                500,
                                format!("internal error: {what}"),
                            )),
                            subject: req.target.clone(),
                            cells: CellCounts::default(),
                            misp_per_kuops: None,
                            upc: None,
                            bubbles: None,
                        }
                    }
                };
            (req.target, outcome)
        }
    };
    // Free the admission slot before writing: once the response is out,
    // the client can read it, reconnect and reach the gate, which must
    // not still count this request.
    state.metrics.inflight.fetch_sub(1, Ordering::SeqCst);
    if let Err(e) = outcome.response.write_to(&mut stream) {
        eprintln!("write error on {endpoint}: {e}");
    }
    // Recorded before the linger, so latency excludes the client's close.
    state
        .metrics
        .record(outcome.summary(&endpoint, start.elapsed()));
    linger_close(stream);
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Process-termination signal handling.
///
/// The only `unsafe` in the workspace: registering `SIGTERM`/`SIGINT`
/// handlers via the libc `signal` symbol (no crate dependency to wrap
/// it). The handler body is async-signal-safe — a single atomic store;
/// the server's stop watcher polls the flag.
pub mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    /// Whether a termination signal has been received (or
    /// [`request_shutdown`] called).
    #[must_use]
    pub fn shutdown_requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag from ordinary code (tests, non-Unix).
    pub fn request_shutdown() {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    #[cfg(unix)]
    #[allow(unsafe_code)]
    mod hook {
        use std::sync::atomic::Ordering;

        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;

        extern "C" fn on_signal(_signum: i32) {
            // Async-signal-safe: one atomic store, nothing else.
            super::SHUTDOWN.store(true, Ordering::SeqCst);
        }

        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
        }

        pub fn install() {
            unsafe {
                signal(SIGTERM, on_signal);
                signal(SIGINT, on_signal);
            }
        }
    }

    /// Installs `SIGTERM`/`SIGINT` handlers that request a graceful
    /// drain. No-op on non-Unix platforms.
    pub fn install() {
        #[cfg(unix)]
        hook::install();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_addr_maps_unspecified_ips_to_loopback_of_the_same_family() {
        let wake = |s: &str| wake_addr(s.parse().unwrap());
        assert_eq!(wake("0.0.0.0:7878"), "127.0.0.1:7878".parse().unwrap());
        assert_eq!(wake("[::]:7878"), "[::1]:7878".parse().unwrap());
        assert_eq!(wake("127.0.0.1:7878"), "127.0.0.1:7878".parse().unwrap());
    }

    #[test]
    fn watcher_returns_once_the_loop_has_ended_even_without_a_stop() {
        // What a panicking accept loop leaves behind: no stop request, and
        // the loop's end of the channel dropped.
        let (loop_alive, loop_ended) = mpsc::channel::<()>();
        drop(loop_alive);
        let watcher = std::thread::spawn(move || {
            let unused = SocketAddr::from((Ipv4Addr::LOCALHOST, 9));
            watch(&AtomicBool::new(false), unused, &loop_ended);
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while !watcher.is_finished() && Instant::now() < deadline {
            std::thread::sleep(WATCH_INTERVAL);
        }
        assert!(watcher.is_finished(), "the watcher outlived the loop");
        watcher
            .join()
            .expect("the watcher returns without panicking");
    }
}
