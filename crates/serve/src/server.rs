//! The worker-pool TCP server.
//!
//! Architecture: one accept thread pushes connections onto a bounded queue; a fixed
//! pool of worker threads pops connections and serves each one to completion with a
//! per-connection [`Session`] — the same line-level engine as the file front end, so
//! the response bytes for a request stream are identical to batch-mode `advise serve`.
//!
//! Each worker drives the socket-free connection core (`connection.rs`): lines are
//! answered in adaptive batches (whatever the read buffer holds, up to `max_batch`),
//! fanned over the work-stealing driver when `batch_threads > 1`.  A request line
//! that cannot get a permit from the global in-flight budget is answered *in place*
//! with a typed 503-style [`OverloadLine`], and a line longer than [`MAX_LINE_BYTES`]
//! with a typed error line: nothing is silently dropped, and output order always
//! matches input order.
//!
//! Control lines: `!reload <path>`, `!stats`, and `!metrics` are handled by the
//! shared session engine (any connection is an admin connection); `!shutdown` is
//! handled here — it acknowledges, stops the accept loop, lets every worker drain the
//! requests already read, and unblocks [`Server::join`].
//!
//! Observability: the server publishes connection, queue-depth, in-flight, served and
//! shed counters/gauges into the process-global [`tcp_obs::Registry`] (`serve.*`
//! metric names).  Metrics are strictly out-of-band — they never touch the response
//! stream, so served bytes stay identical for any worker/thread configuration.

use crate::connection::{Connection, Fed, Next};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tcp_advisor::{render_line, AdvisorHandle, MultiAdvisor, Session};
use tcp_obs::{Counter, Gauge};

/// How long a worker blocks in a read before re-checking the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// Longest line (bytes before its `\n`) a connection buffers.  A longer line is
/// discarded up to its terminator and answered in place with one typed error line,
/// so an unterminated stream cannot grow a worker's memory without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Configuration of a [`Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Address to bind (`host:port`; port `0` picks a free port).
    pub addr: String,
    /// Fixed worker-pool size (each worker serves one connection at a time).
    pub workers: usize,
    /// Global in-flight request budget: requests admitted but not yet answered.
    /// Requests beyond the budget get typed overload responses.
    pub max_inflight: usize,
    /// Largest batch of lines answered per session flush.  Keep it below
    /// `max_inflight / workers` (the defaults are) so well-behaved connections never
    /// shed; a burst larger than the remaining budget gets typed overload lines.
    pub max_batch: usize,
    /// Worker threads the session fans each request batch over (`1` keeps batches
    /// single-threaded so scaling comes from the connection workers).
    pub batch_threads: usize,
    /// Most connections allowed to wait for a worker; beyond it new connections are
    /// refused with a typed overload line instead of queueing unboundedly.
    pub max_pending: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_inflight: 4096,
            max_batch: 256,
            batch_threads: 1,
            max_pending: 1024,
        }
    }
}

impl ServeOptions {
    fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("workers must be at least 1".to_string());
        }
        if self.max_inflight == 0 {
            return Err("max-inflight must be at least 1".to_string());
        }
        if self.max_batch == 0 {
            return Err("max-batch must be at least 1".to_string());
        }
        if self.max_pending == 0 {
            return Err("max-pending must be at least 1".to_string());
        }
        Ok(())
    }
}

/// The typed 503-style response emitted when the in-flight budget (or the pending
/// connection queue) is exhausted.  Emitted in place of the response the request
/// would have received, so clients can count on one output line per input line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadLine {
    /// What was shed and why, including the configured limit.
    pub error: String,
    /// HTTP-style status code (always 503).
    pub code: u32,
    /// Correlation id (never parsed on the overload path — always `null`; the
    /// shedding path must stay cheaper than the serving path).
    pub id: Option<u64>,
}

/// The acknowledgement emitted for a `!shutdown` control line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShutdownLine {
    /// The control verb (`shutdown`).
    pub control: String,
    /// Connections still waiting for a worker when the ack was written; the
    /// connections being served at that moment are drained too but not counted.
    pub draining: usize,
}

/// Serving totals reported by [`Server::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerReport {
    /// Connections accepted and served.
    pub connections: u64,
    /// Request lines answered by the advisor (parse errors included; they produce
    /// typed error lines through the same path).
    pub requests: u64,
    /// Request lines answered with a typed overload response.
    pub overload_responses: u64,
    /// Connections refused because the pending queue was full.
    pub refused_connections: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    overloads: AtomicU64,
    refused: AtomicU64,
}

/// Registry handles for the server's `serve.*` metrics, resolved once at startup so
/// hot paths never take the registry lock.  All instances of [`Server`] in a process
/// share these (the registry is global); counters aggregate across servers, gauges
/// report the most recent writer.
struct ServerMetrics {
    connections_accepted: &'static Counter,
    connections_refused: &'static Counter,
    connections_active: &'static Gauge,
    queue_depth: &'static Gauge,
    inflight: &'static Gauge,
    requests_served: &'static Counter,
    requests_shed: &'static Counter,
    rejected_line_too_long: &'static Counter,
}

impl ServerMetrics {
    fn new() -> Self {
        ServerMetrics {
            connections_accepted: tcp_obs::counter("serve.connections.accepted"),
            connections_refused: tcp_obs::counter("serve.connections.refused"),
            connections_active: tcp_obs::gauge("serve.connections.active"),
            queue_depth: tcp_obs::gauge("serve.queue.depth"),
            inflight: tcp_obs::gauge("serve.inflight"),
            requests_served: tcp_obs::counter("serve.requests.served"),
            requests_shed: tcp_obs::counter("serve.requests.shed"),
            rejected_line_too_long: tcp_obs::counter("serve.rejected.line_too_long"),
        }
    }
}

/// A connection waiting for a worker, stamped at accept time so the worker can
/// attribute the queue wait to the connection's trace.
struct QueuedConnection {
    stream: TcpStream,
    /// When the accept loop enqueued it (the start of the queue-wait span).
    enqueued_at: Instant,
    /// Accept-order ordinal: the deterministic trace-sampling seed for the
    /// connection (`--trace-sample 1/N` picks the same connections every run of the
    /// same arrival order).
    ordinal: u64,
}

struct Shared {
    handle: AdvisorHandle,
    options: ServeOptions,
    queue: Mutex<VecDeque<QueuedConnection>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    inflight: AtomicUsize,
    counters: Counters,
    metrics: ServerMetrics,
    addr: SocketAddr,
    /// Accept-order allocator behind [`QueuedConnection::ordinal`].
    connection_seq: AtomicU64,
    /// The answer to every request line shed by this server, rendered once.
    shed_line: String,
}

impl Shared {
    /// Grabs one in-flight permit if the budget allows.
    fn try_admit(&self) -> bool {
        match self
            .inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                if n < self.options.max_inflight {
                    Some(n + 1)
                } else {
                    None
                }
            }) {
            Ok(previous) => {
                self.metrics.inflight.set((previous + 1) as f64);
                true
            }
            Err(_) => false,
        }
    }

    /// Returns the permits of a batch's `served` requests to the budget and counts
    /// its served and `shed` lines.
    fn release(&self, served: usize, shed: u64) {
        if served > 0 {
            let previous = self.inflight.fetch_sub(served, Ordering::AcqRel);
            let inflight = previous.saturating_sub(served);
            self.metrics.inflight.set(inflight as f64);
            self.metrics.requests_served.add(served as u64);
        }
        if shed > 0 {
            self.metrics.requests_shed.add(shed);
        }
        let (c, served) = (&self.counters, served as u64);
        c.requests.fetch_add(served, Ordering::Relaxed); // lint:allow(ordering-audit) stat counter, read after join
        c.overloads.fetch_add(shed, Ordering::Relaxed); // lint:allow(ordering-audit) stat counter, read after join
    }

    /// Initiates shutdown: stops the accept loop and wakes every idle worker.  The
    /// accept thread may be blocked in `accept()`, so poke it with a throwaway
    /// connection — through loopback when the server bound a wildcard address,
    /// which is not connectable on every platform.
    fn trigger_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut poke = self.addr;
        if poke.ip().is_unspecified() {
            match poke {
                SocketAddr::V4(_) => poke.set_ip(std::net::Ipv4Addr::LOCALHOST.into()),
                SocketAddr::V6(_) => poke.set_ip(std::net::Ipv6Addr::LOCALHOST.into()),
            }
        }
        let _ = TcpStream::connect(poke);
        self.queue_cv.notify_all();
    }
}

/// A running advisor server.  Dropping the handle does **not** stop the server; call
/// [`Server::shutdown`] (or send a `!shutdown` control line) and then
/// [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `options.addr` and starts the accept loop and the worker pool.
    pub fn start(advisor: MultiAdvisor, options: ServeOptions) -> Result<Server, String> {
        options.validate()?;
        let listener = TcpListener::bind(&options.addr)
            .map_err(|e| format!("cannot bind {}: {e}", options.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        let shared = Arc::new(Shared {
            handle: AdvisorHandle::new(advisor),
            options: options.clone(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            counters: Counters::default(),
            metrics: ServerMetrics::new(),
            addr,
            connection_seq: AtomicU64::new(0),
            shed_line: shed_line(options.max_inflight),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, &shared))
        };
        let workers = (0..options.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Server {
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The address the server actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Initiates a graceful shutdown: stop accepting, drain requests already read,
    /// then let [`Server::join`] return.  Idempotent; `!shutdown` calls this too.
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Waits for the accept loop and every worker to finish, returning the totals.
    pub fn join(mut self) -> ServerReport {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let c = &self.shared.counters;
        ServerReport {
            // lint:allow(ordering-audit) every writer thread was joined above; these loads cannot race
            connections: c.connections.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed), // lint:allow(ordering-audit) post-join load
            // lint:allow(ordering-audit) post-join load
            overload_responses: c.overloads.load(Ordering::Relaxed),
            refused_connections: c.refused.load(Ordering::Relaxed), // lint:allow(ordering-audit) post-join load
        }
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            // A real client racing the shutdown poke still gets a typed goodbye
            // instead of a silent hang-up.
            if let Ok(stream) = stream {
                refuse(stream, "server is shutting down".to_string());
            }
            break;
        }
        let Ok(stream) = stream else {
            // Transient accept failures (EMFILE under fd pressure, aborted
            // handshakes) must not busy-spin a core exactly when the host is
            // already starved.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        // A worker can only panic while holding the lock between pop and depth
        // update; the queue itself is still well-formed, so recover rather than
        // take down the accept loop with it.
        let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if queue.len() >= shared.options.max_pending {
            drop(queue);
            // lint:allow(ordering-audit) monotone stat counter; read only after join or for reporting
            shared.counters.refused.fetch_add(1, Ordering::Relaxed);
            shared.metrics.connections_refused.incr();
            refuse(
                stream,
                format!(
                    "overloaded: connection queue is full (max {}); retry later",
                    shared.options.max_pending
                ),
            );
        } else {
            queue.push_back(QueuedConnection {
                stream,
                enqueued_at: Instant::now(),
                // lint:allow(ordering-audit) ordinal allocation needs atomicity only; uniqueness is the invariant
                ordinal: shared.connection_seq.fetch_add(1, Ordering::Relaxed),
            });
            shared.metrics.queue_depth.set(queue.len() as f64);
            drop(queue);
            shared.queue_cv.notify_one();
        }
    }
    // Wake every worker so the pool can drain the queue and exit.
    shared.queue_cv.notify_all();
}

/// The overload line (no newline) that answers a request shed by a server whose
/// in-flight budget is `max_inflight`.
pub(crate) fn shed_line(max_inflight: usize) -> String {
    overload_line(format!(
        "overloaded: in-flight budget exhausted (max {max_inflight}); retry later"
    ))
}

fn overload_line(error: String) -> String {
    render_line(&OverloadLine {
        error,
        code: 503,
        id: None,
    })
}

/// Refuses a connection with one typed overload line (best effort — the client may
/// already be gone, which is fine).
fn refuse(mut stream: TcpStream, error: String) {
    let _ = stream.write_all(format!("{}\n", overload_line(error)).as_bytes());
}

fn worker_loop(shared: &Shared) {
    let lock = || shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    let mut queue = lock();
    loop {
        if let Some(connection) = queue.pop_front() {
            shared.metrics.queue_depth.set(queue.len() as f64);
            drop(queue);
            serve_connection(connection, shared);
            queue = lock();
        } else if shared.shutdown.load(Ordering::SeqCst) {
            break;
        } else {
            queue = shared
                .queue_cv
                .wait(queue)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

fn serve_connection(connection: QueuedConnection, shared: &Shared) {
    let QueuedConnection {
        stream,
        enqueued_at,
        ordinal,
    } = connection;
    // The connection's trace root (accept → drain), sampled deterministically by
    // accept ordinal; the time spent waiting for this worker lands as a completed
    // `serve.queue.wait` child.  All of this is inert when tracing is off, and none
    // of it touches the response bytes.
    let _conn_trace = tcp_obs::root_span!("serve.connection", ordinal, ordinal);
    if tcp_obs::trace::tracing_configured() {
        static QUEUE_WAIT: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
        tcp_obs::trace::complete_span(
            *QUEUE_WAIT.get_or_init(|| tcp_obs::trace::site_id("serve.queue.wait")),
            enqueued_at,
            ordinal,
        );
    }
    // lint:allow(ordering-audit) monotone stat counter; read only after join or for reporting
    shared.counters.connections.fetch_add(1, Ordering::Relaxed);
    shared.metrics.connections_accepted.incr();
    shared.metrics.connections_active.add(1.0);
    let _ = stream.set_nodelay(true);
    // A finite read timeout lets the worker notice a server shutdown while a client
    // sits idle; complete batches are always flushed before the worker blocks again.
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut reader = BufReader::with_capacity(1 << 16, &stream);
    let mut session = Session::new(&shared.handle, shared.options.batch_threads);
    let mut core = Connection::new(shared.options.max_batch, &shared.shed_line);
    let mut out = String::new();
    loop {
        // Every pass answers the whole batch before the next read, which may block:
        // a stalled partial line never withholds the answers of the lines before it.
        let fed = match reader.fill_buf() {
            Ok(chunk) => {
                let fed = core.feed(chunk, || shared.try_admit());
                reader.consume(fed.consumed);
                fed
            }
            // A read timeout is the shutdown poll below.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Fed::default()
            }
            Err(_) => break,
        };
        shared.metrics.rejected_line_too_long.add(fed.too_long);
        let written = core.pending() == 0 || {
            // Batch-assembly-and-dispatch span, nested in the connection trace; the
            // arg is the batch size.  Per-request spans open inside `Session::process`.
            let _batch_span = tcp_obs::span!("serve.batch.flush", core.pending() as u64);
            out.clear();
            let (served, shed) = core.answer(&mut session, &mut out);
            let written = {
                let _write_span = tcp_obs::span!("serve.write", out.len() as u64);
                (&stream).write_all(out.as_bytes())
            };
            // Permits are released only after the responses hit the socket: "in
            // flight" covers the full admission-to-response window, which is what
            // backpressure must bound.
            shared.release(served, shed);
            written.is_ok()
        };
        if fed.next == Next::Shutdown {
            // Acknowledge, counting the connections still waiting for a worker; drain.
            let draining = shared.queue.lock().map_or(0, |queue| queue.len());
            let ack = ShutdownLine {
                control: "shutdown".to_string(),
                draining,
            };
            let _ = (&stream).write_all(format!("{}\n", render_line(&ack)).as_bytes());
            shared.trigger_shutdown();
            break;
        }
        // Close at EOF, once the client is gone, or when a drain was requested (by
        // `!shutdown` on another connection) and everything read is answered: an
        // active client must not keep the server from exiting.
        let drain = fed.next == Next::Read && shared.shutdown.load(Ordering::SeqCst);
        if !written || fed.next == Next::Close || drain {
            break;
        }
    }
    shared.metrics.connections_active.sub(1.0);
}
