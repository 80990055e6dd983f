//! The worker-pool TCP server.
//!
//! Architecture: one accept thread pushes connections onto a bounded queue; a fixed
//! pool of worker threads pops connections and serves each one to completion with a
//! per-connection [`Session`] — the same line-level engine as the file front end, so
//! the response bytes for a request stream are identical to batch-mode `advise serve`.
//!
//! Inside a connection, lines are read into adaptive batches (as many lines as the
//! read buffer already holds, up to `max_batch`) and answered through the session,
//! which fans request runs over the workspace's work-stealing driver when
//! `batch_threads > 1`.  Admission control is a global in-flight request budget: a
//! request line that cannot get a permit is answered *in place* with a typed
//! 503-style [`OverloadLine`] — responses are never silently dropped, and output
//! order always matches input order.
//!
//! A line longer than [`MAX_LINE_BYTES`] is answered in place with a typed error line
//! and the connection resynchronises at the next `\n`.
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

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tcp_advisor::{render_line, AdvisorHandle, ErrorLine, MultiAdvisor, Session};
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
    /// Connections still queued or being served that will be drained.
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

    /// Returns `count` permits to the budget.
    fn release(&self, count: usize) {
        if count > 0 {
            let previous = self.inflight.fetch_sub(count, Ordering::AcqRel);
            self.metrics
                .inflight
                .set(previous.saturating_sub(count) as f64);
        }
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

/// One queued output slot of a connection batch, in input order.
enum Slot {
    /// A line for the session engine (request or control), as its byte range in the
    /// batch's `lines`; `bool` says whether it holds an in-flight permit (control
    /// lines do not).
    Line(Range<usize>, bool),
    /// A request line shed by admission control.
    Overloaded,
    /// A line longer than [`MAX_LINE_BYTES`], discarded unread.
    LineTooLong,
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

    /// The hot-reload slot behind the served packs (shared with every connection).
    pub fn handle(&self) -> &AdvisorHandle {
        &self.shared.handle
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

/// Refuses a connection with one typed overload line (best effort — the client may
/// already be gone, which is fine).
fn refuse(stream: TcpStream, error: String) {
    let line = render_line(&OverloadLine {
        error,
        code: 503,
        id: None,
    });
    let mut writer = BufWriter::new(stream);
    let _ = writer.write_all(line.as_bytes());
    let _ = writer.write_all(b"\n");
    let _ = writer.flush();
}

fn worker_loop(shared: &Shared) {
    loop {
        let connection = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(connection) = queue.pop_front() {
                    shared.metrics.queue_depth.set(queue.len() as f64);
                    break Some(connection);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        match connection {
            Some(connection) => serve_connection(connection, shared),
            None => break,
        }
    }
}

/// Queues one complete request/control line (terminator already removed), copying
/// its text to the end of the batch's `lines`.  Returns `false` for the `!shutdown`
/// control, which the connection loop handles itself.
fn queue_line(line: &[u8], batch: &mut Batch, shared: &Shared) -> bool {
    // Invalid UTF-8 cannot even be represented in file mode (reading the document
    // would fail); over the socket it degrades to a replacement-character line whose
    // parse error is still a typed in-place response — never a dropped connection.
    let start = batch.lines.len();
    batch.lines.push_str(&String::from_utf8_lossy(line));
    let end = batch.lines.len();
    let text = batch.lines[start..].trim();
    if text == "!shutdown" {
        batch.lines.truncate(start);
        return false;
    }
    let slot = if text.is_empty() {
        None
    } else if text.starts_with('!') {
        // Control lines bypass admission control: health probes and reloads must
        // keep working while the budget is exhausted.
        Some(Slot::Line(start..end, false))
    } else if shared.try_admit() {
        Some(Slot::Line(start..end, true))
    } else {
        Some(Slot::Overloaded)
    };
    if !matches!(slot, Some(Slot::Line(..))) {
        batch.lines.truncate(start);
    }
    batch.slots.extend(slot);
    true
}

/// Queues the in-place answer to a discarded over-long line.
fn reject_long_line(pending: &mut Vec<Slot>, shared: &Shared) {
    shared.metrics.rejected_line_too_long.incr();
    pending.push(Slot::LineTooLong);
}

/// Decrements `serve.connections.active` on every exit path of [`serve_connection`].
struct ActiveConnectionGuard<'a>(&'a Gauge);

impl Drop for ActiveConnectionGuard<'_> {
    fn drop(&mut self) {
        self.0.sub(1.0);
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
    let _active = ActiveConnectionGuard(shared.metrics.connections_active);
    let _ = stream.set_nodelay(true);
    // A finite read timeout lets the worker notice a server shutdown while a client
    // sits idle; complete batches are always flushed before the worker blocks again.
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::with_capacity(1 << 16, read_half);
    let mut writer = BufWriter::with_capacity(1 << 16, stream);
    let mut session = Session::new(&shared.handle, shared.options.batch_threads);
    let batch_cap = shared.options.max_batch;
    let mut batch = Batch::default();
    // Bytes of a line whose terminator has not arrived yet.  Lines are assembled at
    // the byte level (not via `read_line`) so a read timeout can never discard
    // partially received multi-byte characters mid-line.  It never exceeds
    // `MAX_LINE_BYTES`: past that, `discarding` drops the rest of the line.
    let mut partial: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        let chunk_len = match reader.fill_buf() {
            Ok([]) => {
                // EOF: the unterminated tail is still one request, then drain.
                if discarding {
                    reject_long_line(&mut batch.slots, shared);
                } else if !partial.is_empty() && !queue_line(&partial, &mut batch, shared) {
                    shutdown_connection(&mut session, &mut batch, &mut writer, shared);
                    return;
                }
                let _ = flush_batch(&mut session, &mut batch, &mut writer, shared);
                return;
            }
            Ok(chunk) => {
                let mut consumed = 0usize;
                while let Some(offset) = chunk[consumed..].iter().position(|&b| b == b'\n') {
                    let line = &chunk[consumed..consumed + offset];
                    consumed += offset + 1;
                    if discarding || partial.len() + line.len() > MAX_LINE_BYTES {
                        discarding = false;
                        partial.clear();
                        reject_long_line(&mut batch.slots, shared);
                    } else {
                        let line = if partial.is_empty() {
                            line
                        } else {
                            partial.extend_from_slice(line);
                            &partial
                        };
                        // Strip an optional `\r` exactly like `str::lines` in batch
                        // mode — parse-error byte offsets must match it.
                        let line = line.strip_suffix(b"\r").unwrap_or(line);
                        let more = queue_line(line, &mut batch, shared);
                        partial.clear();
                        if !more {
                            shutdown_connection(&mut session, &mut batch, &mut writer, shared);
                            return;
                        }
                    }
                    if batch.slots.len() >= batch_cap
                        && flush_batch(&mut session, &mut batch, &mut writer, shared).is_err()
                    {
                        return;
                    }
                }
                let tail = &chunk[consumed..];
                if discarding || partial.len() + tail.len() > MAX_LINE_BYTES {
                    discarding = true;
                    partial = Vec::new();
                } else {
                    partial.extend_from_slice(tail);
                }
                chunk.len()
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    let _ = flush_batch(&mut session, &mut batch, &mut writer, shared);
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        reader.consume(chunk_len);
        // The whole chunk was consumed, so the internal buffer is drained and the
        // next read may block: answer everything complete now.  A stalled partial
        // line never withholds the responses of the requests before it.
        if flush_batch(&mut session, &mut batch, &mut writer, shared).is_err() {
            return;
        }
        // A drain was requested (by `!shutdown` on another connection): everything
        // read so far is answered — close rather than stream forever, or the server
        // could never exit while an active client keeps sending.
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Acknowledges a `!shutdown` control line: answer everything before it, emit the
/// ack, and trigger the server-wide drain.
fn shutdown_connection(
    session: &mut Session<'_>,
    batch: &mut Batch,
    writer: &mut BufWriter<TcpStream>,
    shared: &Shared,
) {
    let _ = flush_batch(session, batch, writer, shared);
    let draining = shared
        .queue
        .lock()
        .map(|queue| queue.len())
        .unwrap_or_default();
    let ack = render_line(&ShutdownLine {
        control: "shutdown".to_string(),
        draining,
    });
    let _ = writer.write_all(ack.as_bytes());
    let _ = writer.write_all(b"\n");
    let _ = writer.flush();
    shared.trigger_shutdown();
}

/// A connection's batch: the slots read since the last flush, the text of their
/// lines, and the answer text and request-run buffers that every flush reuses.
#[derive(Default)]
struct Batch {
    slots: Vec<Slot>,
    /// The lines of the `Slot::Line`s, back to back; emptied by each flush.
    lines: String,
    out: String,
    /// Empty between flushes; only its allocation carries over.
    run: Vec<&'static str>,
}

/// Empties `run` and hands back its allocation for borrows of another lifetime (an
/// in-place `collect` of an empty iterator keeps the buffer).
fn recycle<'b>(mut run: Vec<&str>) -> Vec<&'b str> {
    run.clear();
    run.into_iter().map(|_| "").collect()
}

/// Answers one batch of slots in input order, writes the responses, and returns the
/// in-flight permits.  An `Err` means the client is gone; the caller closes.
fn flush_batch(
    session: &mut Session<'_>,
    batch: &mut Batch,
    writer: &mut BufWriter<TcpStream>,
    shared: &Shared,
) -> std::io::Result<()> {
    let Batch {
        slots: pending,
        lines,
        out,
        run: reused_run,
    } = batch;
    if pending.is_empty() {
        return Ok(());
    }
    // Batch-assembly-and-dispatch span, nested in the connection trace; the arg is
    // the batch size.  Per-request spans open inside `Session::process`.
    let _batch_span = tcp_obs::span!("serve.batch.flush", pending.len() as u64);
    out.clear();
    let mut run = recycle(std::mem::take(reused_run));
    let mut permits = 0usize;
    let mut served = 0u64;
    let mut overloaded = 0u64;
    for slot in pending.iter() {
        match slot {
            Slot::Line(range, holds_permit) => {
                run.push(&lines[range.clone()]);
                if *holds_permit {
                    permits += 1;
                    served += 1;
                }
            }
            Slot::Overloaded | Slot::LineTooLong => {
                // Answered in place: the lines queued before it are answered first.
                session.process(&run, out);
                run.clear();
                let line = if let Slot::Overloaded = slot {
                    overloaded += 1;
                    render_line(&OverloadLine {
                        error: format!(
                            "overloaded: in-flight budget exhausted (max {}); retry later",
                            shared.options.max_inflight
                        ),
                        code: 503,
                        id: None,
                    })
                } else {
                    render_line(&ErrorLine {
                        error: format!(
                            "line too long: more than {MAX_LINE_BYTES} bytes before its \
                             newline; discarded"
                        ),
                        id: None,
                    })
                };
                out.push_str(&line);
                out.push('\n');
            }
        }
    }
    session.process(&run, out);
    *reused_run = recycle(run);
    pending.clear();
    lines.clear();
    let outcome = {
        let _write_span = tcp_obs::span!("serve.write", out.len() as u64);
        writer
            .write_all(out.as_bytes())
            .and_then(|()| writer.flush())
    };
    // Permits are released only after the responses hit the socket: "in flight"
    // covers the full admission-to-response window, which is what backpressure
    // must bound.
    shared.release(permits);
    shared
        .counters
        .requests
        // lint:allow(ordering-audit) monotone stat counter; read only after join or for reporting
        .fetch_add(served, Ordering::Relaxed);
    shared
        .counters
        .overloads
        // lint:allow(ordering-audit) monotone stat counter; read only after join or for reporting
        .fetch_add(overloaded, Ordering::Relaxed);
    if served > 0 {
        shared.metrics.requests_served.add(served);
    }
    if overloaded > 0 {
        shared.metrics.requests_shed.add(overloaded);
    }
    outcome
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_recycled_run_keeps_its_allocation() {
        let line = String::from("{\"kind\":\"best-policy\"}");
        let mut run: Vec<&str> = Vec::with_capacity(64);
        run.push(&line);
        let buffer = run.as_ptr() as usize;
        let recycled: Vec<&'static str> = super::recycle(run);
        assert!(recycled.is_empty());
        assert_eq!(recycled.capacity(), 64);
        assert_eq!(recycled.as_ptr() as usize, buffer);
    }
}
