//! Zero-dependency TCP serving layer.
//!
//! A small HTTP/1.1 server on `std::net` (no external crates, no
//! unsafe):
//!
//! * `GET /metrics` — Prometheus text exposition of the process-global
//!   telemetry registry ([`apollo_telemetry::prometheus_text`]).
//! * `GET /events`  — streaming schema-versioned JSONL: one
//!   [`apollo_telemetry::Record`] per line, fed from the
//!   [`MonitorHub`](crate::hub::MonitorHub) with per-subscriber dense
//!   `seq` (re-stamped at send time, after any backpressure drops, so
//!   every delivered stream passes `trace-lint`).
//! * `GET /shutdown` — requests a clean monitor shutdown by setting
//!   the shared stop flag.
//! * `GET /` — a short plain-text index.
//!
//! Connections arrive through [`Acceptor`], the one accept loop both
//! serving layers share: a thread blocked in `accept`, so a request is
//! picked up the moment it arrives, and a thread per connection.
//! [`ServerHandle::stop`] raises the stop flag and wakes the blocked
//! `accept` with one loopback connection, so the server winds down
//! without signal handlers; connection handlers are joined on stop.
//!
//! # Hardening
//!
//! The server assumes hostile or broken peers and degrades instead of
//! failing:
//!
//! * **Bounded parsing** — request and header lines are read through a
//!   byte cap ([`ServerOptions::max_line_bytes`]); an oversized or
//!   structurally malformed request gets `400`, a zero-length read is
//!   a clean close. No input can panic a handler or grow memory
//!   unboundedly.
//! * **Timeouts both ways** — every served connection carries a read
//!   *and* a write timeout. A peer that stalls mid-request gets `408`;
//!   a `/events` client that stops draining its socket is evicted once
//!   a write times out (`introspect.http.slow_evicted`).
//! * **Connection cap** — at most [`ServerOptions::max_conns`] live
//!   handlers; excess connections are shed with `503`
//!   (`introspect.http.shed`). Finished handler threads are reaped on
//!   every accept.
//! * **Panic isolation** — shared serving state is locked through
//!   [`plock`](crate::sync::plock), so a panicking handler thread can
//!   never poison the accept loop or `stop()` into a cascade.

use crate::health::HealthRegistry;
use crate::hub::{MonitorHub, Poll};
use crate::sync::plock;
use apollo_telemetry::{FieldValue, Record, SCHEMA_VERSION};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pause after an accept error other than an aborted handshake (e.g.
/// `EMFILE`), so descriptor exhaustion cannot spin a core.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(20);
/// Wake connections [`Acceptor::stop`] makes before it gives up on the
/// accept thread.
const WAKE_ATTEMPTS: u32 = 20;
/// Connect timeout of one wake connection, and how long `stop` then
/// waits for the accept thread to exit before trying again.
const WAKE_TIMEOUT: Duration = Duration::from_millis(250);

/// The accept loop behind both serving layers (this module's server
/// and `apollo-fleet`'s).
///
/// Owns the listener and one thread blocked in `accept`. Each admitted
/// connection runs the server's handler on a thread of its own;
/// finished handler threads are reaped on every accept, and once
/// `max_conns` handlers are live, further peers get the server's shed
/// responder on the accept thread instead. The stop flag is checked
/// right after every `accept`: a connection accepted once it is up
/// (the wake connection [`Acceptor::stop`] makes, or a peer racing it)
/// is dropped unanswered.
pub struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Acceptor {
    /// Binds `listen` (port 0 picks a free port) and starts accepting.
    /// `handle` serves one connection; `shed` answers a peer over the
    /// connection cap. Failed `accept`s count into the `accept_errors`
    /// counter.
    ///
    /// # Errors
    /// Returns the bind error if the address is unavailable.
    pub fn bind<H, S>(
        listen: &str,
        stop: Arc<AtomicBool>,
        max_conns: usize,
        accept_errors: &'static str,
        handle: H,
        mut shed: S,
    ) -> std::io::Result<Acceptor>
    where
        H: Fn(TcpStream) + Send + Sync + 'static,
        S: FnMut(&mut TcpStream) + Send + 'static,
    {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let handle = Arc::new(handle);
            std::thread::spawn(move || loop {
                let accepted = listener.accept();
                if stop.load(Ordering::SeqCst) {
                    return; // drops the wake connection unanswered
                }
                let mut stream = match accepted {
                    Ok((stream, _)) => stream,
                    Err(e) => {
                        apollo_telemetry::counter(accept_errors).inc();
                        // An aborted handshake is retried at once.
                        if !matches!(
                            e.kind(),
                            ErrorKind::ConnectionAborted | ErrorKind::Interrupted
                        ) {
                            std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                        }
                        continue;
                    }
                };
                let live = {
                    // Reap finished handler threads so the cap counts
                    // *live* connections, not lifetime totals.
                    let mut conns = plock(&conns);
                    for done in conns.extract_if(.., |h| h.is_finished()) {
                        let _ = done.join();
                    }
                    conns.len()
                };
                if live >= max_conns {
                    // Shed load instead of queueing unboundedly.
                    shed(&mut stream);
                    continue;
                }
                let handle = Arc::clone(&handle);
                let thread = std::thread::spawn(move || handle(stream));
                plock(&conns).push(thread);
            })
        };
        Ok(Acceptor {
            addr,
            stop,
            thread,
            conns,
        })
    }

    /// The bound listen address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raises the stop flag, wakes the blocked `accept` with a loopback
    /// connection, and joins the accept thread and every handler.
    ///
    /// Always returns: should no wake connection get through within
    /// about 10 s (the listen address unreachable from this host), the
    /// accept thread is left detached rather than joined.
    pub fn stop(self) {
        let Acceptor {
            addr,
            stop,
            thread,
            conns,
        } = self;
        stop.store(true, Ordering::SeqCst);
        let wake = wake_addr(addr);
        let woke = (0..WAKE_ATTEMPTS).any(|_| {
            let _ = TcpStream::connect_timeout(&wake, WAKE_TIMEOUT);
            finished_within(&thread, WAKE_TIMEOUT)
        });
        if woke {
            let _ = thread.join();
        }
        let handlers = std::mem::take(&mut *plock(&conns));
        for h in handlers {
            let _ = h.join();
        }
    }
}

/// The address [`Acceptor::stop`] connects to: the bound one, with a
/// wildcard IP (`0.0.0.0`, `::`) mapped to loopback.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip: IpAddr = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => Ipv4Addr::LOCALHOST.into(),
        IpAddr::V6(ip) if ip.is_unspecified() => Ipv6Addr::LOCALHOST.into(),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// Waits up to `limit` for `thread` to finish.
fn finished_within(thread: &JoinHandle<()>, limit: Duration) -> bool {
    let until = Instant::now() + limit;
    while !thread.is_finished() {
        if Instant::now() >= until {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Serving-layer robustness knobs (see module docs).
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Per-connection read timeout (stalled request ⇒ `408`).
    pub read_timeout: Duration,
    /// Per-connection write timeout (stalled `/events` client ⇒
    /// eviction; stalled response write ⇒ drop).
    pub write_timeout: Duration,
    /// Maximum concurrent connection handlers; excess peers get `503`.
    pub max_conns: usize,
    /// Byte cap on any single request or header line (`400` beyond).
    pub max_line_bytes: usize,
    /// Test-only chaos hook: a GET on this exact path panics inside
    /// the handler thread, exercising panic isolation end to end.
    pub chaos_panic_path: Option<String>,
    /// Fleet health registry behind `/healthz` and `/status`. `None`
    /// gets a private empty registry at serve time: `/healthz` then
    /// answers pure liveness (`200 ok`) and `/status` reports an
    /// empty fleet plus live hub subscriber state.
    pub health: Option<Arc<HealthRegistry>>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_conns: 64,
            max_line_bytes: 8 * 1024,
            chaos_panic_path: None,
            health: None,
        }
    }
}

/// Running server: bound address plus lifecycle control.
pub struct ServerHandle {
    hub: Arc<MonitorHub>,
    acceptor: Acceptor,
}

impl ServerHandle {
    /// The bound listen address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Stops the server: closes the hub (ending every `/events`
    /// stream), then stops the acceptor, which raises the shared stop
    /// flag and joins all server threads.
    pub fn stop(self) {
        self.hub.close();
        self.acceptor.stop();
    }
}

/// Binds `listen` (e.g. `127.0.0.1:9100`; port 0 picks a free port)
/// and serves with default [`ServerOptions`] until `stop` becomes
/// true.
///
/// # Errors
/// Returns the bind error if the address is unavailable.
pub fn serve(
    listen: &str,
    hub: Arc<MonitorHub>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<ServerHandle> {
    serve_with(listen, hub, stop, ServerOptions::default())
}

/// [`serve`] with explicit robustness options.
///
/// # Errors
/// Returns the bind error if the address is unavailable.
pub fn serve_with(
    listen: &str,
    hub: Arc<MonitorHub>,
    stop: Arc<AtomicBool>,
    opts: ServerOptions,
) -> std::io::Result<ServerHandle> {
    let mut opts = opts;
    if opts.health.is_none() {
        opts.health = Some(Arc::new(HealthRegistry::new()));
    }
    let (max_conns, write_timeout) = (opts.max_conns, opts.write_timeout);
    let handle = {
        let hub = Arc::clone(&hub);
        let stop = Arc::clone(&stop);
        move |stream| {
            // Per-connection errors (reset peers, parse noise) must not
            // take the server down.
            let _ = handle_connection(stream, &hub, &stop, &opts);
        }
    };
    let acceptor = Acceptor::bind(
        listen,
        stop,
        max_conns,
        "introspect.http.accept_errors",
        handle,
        move |stream| {
            apollo_telemetry::counter("introspect.http.shed").inc();
            let _ = stream.set_write_timeout(Some(write_timeout));
            let _ = respond(
                stream,
                "503 Service Unavailable",
                "text/plain",
                "connection limit reached\n",
            );
        },
    )?;
    Ok(ServerHandle { hub, acceptor })
}

/// One line read through the byte cap.
pub enum LineRead {
    /// A complete line (terminator stripped, lossy UTF-8).
    Line(String),
    /// Peer closed before sending anything on this line.
    Eof,
    /// The line exceeded the cap without a terminating `\n`.
    Oversize,
}

/// Reads one `\n`-terminated line, never buffering more than
/// `cap + 1` bytes regardless of what the peer sends.
///
/// # Errors
/// Propagates socket read errors (including timeouts).
pub fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    cap: usize,
) -> std::io::Result<LineRead> {
    let mut buf = Vec::new();
    let n = reader.take(cap as u64 + 1).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if !buf.ends_with(b"\n") && buf.len() > cap {
        return Ok(LineRead::Oversize);
    }
    let text = String::from_utf8_lossy(&buf)
        .trim_end_matches(['\r', '\n'])
        .to_owned();
    Ok(LineRead::Line(text))
}

/// True for the error kinds a blocking socket read/write reports on
/// timeout (`WouldBlock` on Unix, `TimedOut` on Windows).
pub fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads and validates one HTTP request head (request line plus
/// headers, bounded by `max_line_bytes` per line), answering protocol
/// errors (`400`, `405`, `408`) on `out` directly. Returns
/// `Some(path)` for a well-formed `GET`, `None` when the request was
/// already answered or the peer went away cleanly.
///
/// Shared by this server and the `apollo-fleet` serving layer so both
/// present identical hardening behaviour at the protocol edge.
///
/// # Errors
/// Propagates non-timeout socket errors.
pub fn read_request_head(
    reader: &mut BufReader<TcpStream>,
    out: &mut TcpStream,
    max_line_bytes: usize,
) -> std::io::Result<Option<String>> {
    let request_line = match read_line_bounded(reader, max_line_bytes) {
        Ok(LineRead::Line(l)) => l,
        // Zero-length read: peer connected and went away. Clean drop.
        Ok(LineRead::Eof) => return Ok(None),
        Ok(LineRead::Oversize) => {
            apollo_telemetry::counter("introspect.http.bad_requests").inc();
            respond(out, "400 Bad Request", "text/plain", "request line too long\n")?;
            return Ok(None);
        }
        Err(e) if is_timeout(&e) => {
            apollo_telemetry::counter("introspect.http.timeouts").inc();
            respond(
                out,
                "408 Request Timeout",
                "text/plain",
                "request not received in time\n",
            )?;
            return Ok(None);
        }
        Err(e) => return Err(e),
    };
    // Drain headers up to the blank line; bodies are not supported.
    loop {
        match read_line_bounded(reader, max_line_bytes) {
            Ok(LineRead::Line(h)) if h.is_empty() => break,
            Ok(LineRead::Line(_)) => continue,
            Ok(LineRead::Eof) => break,
            Ok(LineRead::Oversize) => {
                apollo_telemetry::counter("introspect.http.bad_requests").inc();
                respond(out, "400 Bad Request", "text/plain", "header line too long\n")?;
                return Ok(None);
            }
            Err(e) if is_timeout(&e) => {
                apollo_telemetry::counter("introspect.http.timeouts").inc();
                respond(
                    out,
                    "408 Request Timeout",
                    "text/plain",
                    "headers not received in time\n",
                )?;
                return Ok(None);
            }
            Err(e) => return Err(e),
        }
    }
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = (parts.next(), parts.next(), parts.next());
    let (Some(method), Some(path)) = (method, path) else {
        apollo_telemetry::counter("introspect.http.bad_requests").inc();
        respond(out, "400 Bad Request", "text/plain", "malformed request line\n")?;
        return Ok(None);
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase())
        || !path.starts_with('/')
        || !version.is_some_and(|v| v.starts_with("HTTP/"))
    {
        apollo_telemetry::counter("introspect.http.bad_requests").inc();
        respond(out, "400 Bad Request", "text/plain", "malformed request line\n")?;
        return Ok(None);
    }
    if method != "GET" {
        respond(out, "405 Method Not Allowed", "text/plain", "GET only\n")?;
        return Ok(None);
    }
    Ok(Some(path.to_owned()))
}

fn handle_connection(
    stream: TcpStream,
    hub: &Arc<MonitorHub>,
    stop: &Arc<AtomicBool>,
    opts: &ServerOptions,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(opts.read_timeout))?;
    stream.set_write_timeout(Some(opts.write_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let Some(path) = read_request_head(&mut reader, &mut out, opts.max_line_bytes)? else {
        return Ok(());
    };
    let path = path.as_str();
    if opts.chaos_panic_path.as_deref() == Some(path) {
        panic!("chaos: injected handler panic on {path}");
    }
    match path {
        "/" => respond(
            &mut out,
            "200 OK",
            "text/plain; charset=utf-8",
            "apollo monitor: /metrics (Prometheus), /events (JSONL stream), /healthz, /status, /shutdown\n",
        ),
        "/metrics" => {
            let mut body = apollo_telemetry::prometheus_text(&apollo_telemetry::snapshot());
            body.push_str(&subscriber_gauges(hub));
            counter_scrapes();
            respond(&mut out, "200 OK", "text/plain; version=0.0.4", &body)
        }
        "/events" => stream_events(&mut out, hub, stop),
        "/healthz" => {
            let healthy = opts.health.as_ref().is_none_or(|h| h.healthy());
            apollo_telemetry::counter("introspect.healthz.scrapes").inc();
            apollo_telemetry::emit_event(
                "introspect.healthz",
                &[("healthy", FieldValue::from(healthy))],
            );
            if healthy {
                respond(&mut out, "200 OK", "text/plain", "ok\n")
            } else {
                respond(&mut out, "503 Service Unavailable", "text/plain", "degraded\n")
            }
        }
        "/status" => {
            // `serve_with` guarantees a registry; handle the bare
            // default anyway (options built by hand in tests).
            let snap = match &opts.health {
                Some(h) => h.snapshot(hub.subscriber_stats()),
                None => HealthRegistry::new().snapshot(hub.subscriber_stats()),
            };
            apollo_telemetry::counter("introspect.status.scrapes").inc();
            apollo_telemetry::emit_event(
                "introspect.status",
                &[
                    ("healthy", FieldValue::from(snap.healthy)),
                    ("pipelines", FieldValue::from(snap.pipelines.len())),
                    ("subscribers", FieldValue::from(snap.subscribers.len())),
                ],
            );
            let status = if snap.healthy {
                "200 OK"
            } else {
                "503 Service Unavailable"
            };
            let body = format!("{}\n", snap.to_jsonl());
            respond(&mut out, status, "application/json", &body)
        }
        "/shutdown" => {
            stop.store(true, Ordering::Relaxed);
            respond(&mut out, "200 OK", "text/plain", "shutting down\n")
        }
        _ => respond(&mut out, "404 Not Found", "text/plain", "unknown path\n"),
    }
}

fn counter_scrapes() {
    apollo_telemetry::counter("introspect.scrapes").inc();
}

/// Hand-rendered labeled gauges for per-subscriber hub state (the
/// registry's exposition is label-free, so the serving layer appends
/// these rows itself).
fn subscriber_gauges(hub: &Arc<MonitorHub>) -> String {
    use crate::health::SubscriberStatus;
    use std::fmt::Write as _;
    let stats = hub.subscriber_stats();
    if stats.is_empty() {
        return String::new();
    }
    type Field = (&'static str, fn(&SubscriberStatus) -> u64);
    let fields: [Field; 4] = [
        ("introspect_hub_subscriber_queue_depth", |s| s.depth),
        ("introspect_hub_subscriber_dropped", |s| s.dropped),
        ("introspect_hub_subscriber_stride", |s| s.stride),
        ("introspect_hub_subscriber_downsampled", |s| s.downsampled),
    ];
    let mut out = String::new();
    for (metric, value) in fields {
        let _ = writeln!(out, "# TYPE {metric} gauge");
        for s in &stats {
            let _ = writeln!(out, "{metric}{{subscriber=\"{}\"}} {}", s.id, value(s));
        }
    }
    out
}

/// Writes a complete `Connection: close` HTTP/1.1 response.
///
/// # Errors
/// Propagates socket write errors.
pub fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    respond_with_headers(stream, status, content_type, &[], body)
}

/// [`respond`] with extra response headers (e.g. `Retry-After` on a
/// load-shedding `503`). Each pair renders as `name: value`.
///
/// # Errors
/// Propagates socket write errors.
pub fn respond_with_headers(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra {
        let _ = write!(response, "{name}: {value}\r\n");
    }
    response.push_str("Connection: close\r\n\r\n");
    response.push_str(body);
    // One write: `write!` on the socket would issue one per piece, and
    // Nagle may hold a tail piece back. Closing a connection whose
    // request was not read to the end (an oversized line) resets it,
    // which discards whatever is still held back.
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Streams hub bodies as schema-versioned JSONL until the hub closes,
/// the stop flag rises, the client goes away, or a write times out
/// (slow-client eviction).
fn stream_events(
    stream: &mut TcpStream,
    hub: &Arc<MonitorHub>,
    stop: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    let (sub, active) = hub.subscribe();
    apollo_telemetry::gauge("introspect.subscribers").set(active as f64);
    apollo_telemetry::emit_event(
        "introspect.subscriber",
        &[
            ("action", FieldValue::from("connect")),
            ("active", FieldValue::from(active)),
        ],
    );
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    // Per-subscriber wire framing: dense seq from 0 and a local
    // timestamp epoch, assigned at send time (drops happen earlier, in
    // the hub queue, so delivered seq never has gaps).
    let epoch = Instant::now();
    let mut seq = 0u64;
    let result = loop {
        if stop.load(Ordering::Relaxed) && hub.closed() {
            break Ok(());
        }
        match sub.poll(Duration::from_millis(100)) {
            Poll::Body(item) => {
                // Delivered records keep the producing window's causal
                // identity (captured by the hub at publish time).
                let rec = Record {
                    v: SCHEMA_VERSION,
                    seq,
                    ts_ns: epoch.elapsed().as_nanos() as u64,
                    trace_id: item.trace_id,
                    span_id: 0,
                    parent_id: item.parent_id,
                    body: item.body,
                };
                seq += 1;
                let t0 = apollo_telemetry::timing_enabled().then(Instant::now);
                if let Err(e) = writeln!(stream, "{}", rec.to_jsonl()).and_then(|()| stream.flush())
                {
                    if is_timeout(&e) {
                        // The peer stopped draining: evict rather than
                        // let its socket backpressure pin this thread.
                        apollo_telemetry::counter("introspect.http.slow_evicted").inc();
                    }
                    break Ok(()); // client went away or stalled out
                }
                let dur_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                if t0.is_some() {
                    apollo_telemetry::histogram("introspect.window.deliver_ns").observe(dur_ns);
                }
                // One delivery span per traced delivery, parented
                // under the producing window's span. The id crosses
                // the thread boundary by value: a pure function of
                // (trace, window span, subscriber, delivery seq), so
                // the trace tree is identical on every rerun.
                if item.trace_id != 0 {
                    let raw = apollo_telemetry::mix3(
                        item.trace_id ^ item.parent_id,
                        apollo_telemetry::intern("introspect.deliver") ^ sub.id(),
                        rec.seq,
                    ) & apollo_telemetry::ID_MASK;
                    let span_id = if raw == 0 { 1 } else { raw };
                    apollo_telemetry::emit_span_ids(
                        "introspect.deliver",
                        dur_ns,
                        item.trace_id,
                        span_id,
                        item.parent_id,
                    );
                }
            }
            Poll::Timeout => continue,
            Poll::Closed => break Ok(()),
        }
    };
    drop(sub);
    let active = hub.active();
    apollo_telemetry::gauge("introspect.subscribers").set(active as f64);
    apollo_telemetry::emit_event(
        "introspect.subscriber",
        &[
            ("action", FieldValue::from("disconnect")),
            ("active", FieldValue::from(active)),
        ],
    );
    result
}

/// Minimal HTTP GET client for tests, CI smoke checks and the
/// `apollo scrape` subcommand: fetches `http://host:port/path` and
/// returns up to `max_lines` body lines (`None` = the whole body,
/// reading until the server closes the stream).
///
/// # Errors
/// Returns connection or read errors; non-2xx statuses are returned as
/// `InvalidData`.
pub fn http_get_lines(
    addr: &str,
    path: &str,
    max_lines: Option<usize>,
) -> std::io::Result<Vec<String>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let mut out = stream.try_clone()?;
    write!(
        out,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    out.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status)?;
    if !status.contains("200") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("HTTP error: {}", status.trim()),
        ));
    }
    // Skip headers.
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 || line.trim().is_empty() {
            break;
        }
    }
    let mut lines = Vec::new();
    loop {
        if let Some(cap) = max_lines {
            if lines.len() >= cap {
                break;
            }
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let trimmed = line.trim_end_matches(['\r', '\n']);
                if !trimmed.is_empty() {
                    lines.push(trimmed.to_owned());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => break,
            Err(e) => return Err(e),
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apollo_telemetry::RecordBody;

    fn start(opts: ServerOptions) -> (ServerHandle, String, Arc<MonitorHub>, Arc<AtomicBool>) {
        let hub = MonitorHub::new(8);
        let stop = Arc::new(AtomicBool::new(false));
        let server =
            serve_with("127.0.0.1:0", Arc::clone(&hub), Arc::clone(&stop), opts).unwrap();
        let addr = server.addr().to_string();
        (server, addr, hub, stop)
    }

    fn raw_status(addr: &str, payload: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(payload).unwrap();
        s.flush().unwrap();
        let mut r = BufReader::new(s);
        let mut status = String::new();
        r.read_line(&mut status).unwrap();
        status
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        apollo_telemetry::counter("introspect.test.metric").add(3);
        let hub = MonitorHub::new(8);
        let stop = Arc::new(AtomicBool::new(false));
        let server = serve("127.0.0.1:0", Arc::clone(&hub), Arc::clone(&stop)).unwrap();
        let addr = server.addr().to_string();
        let lines = http_get_lines(&addr, "/metrics", None).unwrap();
        assert!(
            lines
                .iter()
                .any(|l| l.contains("introspect_test_metric")
                    || l.contains("introspect.test.metric")),
            "metric missing from exposition: {lines:?}"
        );
        server.stop();
    }

    #[test]
    fn events_endpoint_streams_dense_seq_jsonl() {
        let hub = MonitorHub::new(64);
        let stop = Arc::new(AtomicBool::new(false));
        let server = serve("127.0.0.1:0", Arc::clone(&hub), Arc::clone(&stop)).unwrap();
        let addr = server.addr().to_string();

        let publisher = {
            let hub = Arc::clone(&hub);
            std::thread::spawn(move || {
                // Give the client a moment to subscribe, then publish
                // and close.
                std::thread::sleep(Duration::from_millis(150));
                for i in 0..5u64 {
                    hub.publish(&RecordBody::Message {
                        level: "info".into(),
                        text: format!("w{i}"),
                    });
                }
                hub.close();
            })
        };
        let lines = http_get_lines(&addr, "/events", Some(5)).unwrap();
        publisher.join().unwrap();
        assert_eq!(lines.len(), 5, "{lines:?}");
        for (i, l) in lines.iter().enumerate() {
            let rec =
                apollo_telemetry::validate_line(l).unwrap_or_else(|e| panic!("line {i}: {e}"));
            assert_eq!(rec.seq, i as u64, "dense per-subscriber seq");
        }
        server.stop();
    }

    #[test]
    fn shutdown_endpoint_raises_stop_flag() {
        let hub = MonitorHub::new(8);
        let stop = Arc::new(AtomicBool::new(false));
        let server = serve("127.0.0.1:0", Arc::clone(&hub), Arc::clone(&stop)).unwrap();
        let addr = server.addr().to_string();
        let lines = http_get_lines(&addr, "/shutdown", None).unwrap();
        assert!(
            lines.iter().any(|l| l.contains("shutting down")),
            "{lines:?}"
        );
        assert!(stop.load(Ordering::Relaxed));
        server.stop();
    }

    #[test]
    fn unknown_path_is_404_and_post_is_405() {
        let (server, addr, _hub, _stop) = start(ServerOptions::default());
        let err = http_get_lines(&addr, "/nope", None).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let resp = raw_status(&addr, b"POST /metrics HTTP/1.1\r\n\r\n");
        assert!(resp.contains("405"), "{resp}");
        server.stop();
    }

    #[test]
    fn oversized_request_line_gets_400() {
        let opts = ServerOptions {
            max_line_bytes: 256,
            ..ServerOptions::default()
        };
        let (server, addr, _hub, _stop) = start(opts);
        let mut payload = b"GET /".to_vec();
        payload.extend(vec![b'a'; 4096]);
        let resp = raw_status(&addr, &payload);
        assert!(resp.contains("400"), "{resp}");
        server.stop();
    }

    #[test]
    fn garbage_bytes_get_400_and_server_survives() {
        let (server, addr, _hub, _stop) = start(ServerOptions::default());
        let resp = raw_status(&addr, b"\x00\xff\xfe garbage \x01\x02\n\r\n");
        assert!(resp.contains("400"), "{resp}");
        // The server still answers well-formed requests afterwards.
        let lines = http_get_lines(&addr, "/", None).unwrap();
        assert!(!lines.is_empty());
        server.stop();
    }

    #[test]
    fn zero_length_read_is_a_clean_drop() {
        let (server, addr, _hub, _stop) = start(ServerOptions::default());
        // Connect and immediately close without sending a byte.
        for _ in 0..4 {
            let s = TcpStream::connect(&addr).unwrap();
            drop(s);
        }
        std::thread::sleep(Duration::from_millis(100));
        let lines = http_get_lines(&addr, "/", None).unwrap();
        assert!(!lines.is_empty(), "server alive after empty connections");
        server.stop();
    }

    #[test]
    fn stalled_request_gets_408() {
        let opts = ServerOptions {
            read_timeout: Duration::from_millis(150),
            ..ServerOptions::default()
        };
        let (server, addr, _hub, _stop) = start(opts);
        // Open, send half a request line, never finish it.
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"GET /met").unwrap();
        s.flush().unwrap();
        let mut r = BufReader::new(s);
        let mut status = String::new();
        r.read_line(&mut status).unwrap();
        assert!(status.contains("408"), "{status}");
        server.stop();
    }

    #[test]
    fn connection_cap_sheds_with_503() {
        let opts = ServerOptions {
            max_conns: 1,
            ..ServerOptions::default()
        };
        let (server, addr, hub, _stop) = start(opts);
        // Occupy the single slot with a long-lived /events stream.
        let streamer = {
            let addr = addr.clone();
            std::thread::spawn(move || http_get_lines(&addr, "/events", Some(1)))
        };
        std::thread::sleep(Duration::from_millis(200));
        // Second connection must be shed.
        let resp = raw_status(&addr, b"GET / HTTP/1.1\r\n\r\n");
        assert!(resp.contains("503"), "{resp}");
        hub.publish(&RecordBody::Message {
            level: "info".into(),
            text: "unblock".into(),
        });
        hub.close();
        let _ = streamer.join().unwrap();
        server.stop();
    }

    #[test]
    fn handler_panic_does_not_poison_the_server() {
        let opts = ServerOptions {
            chaos_panic_path: Some("/chaos-panic".into()),
            ..ServerOptions::default()
        };
        let (server, addr, _hub, _stop) = start(opts);
        // The panicking handler drops the connection mid-flight …
        let res = http_get_lines(&addr, "/chaos-panic", None);
        assert!(res.is_err(), "panicking handler cannot answer");
        // … and the server keeps accepting, handling, and stopping
        // cleanly afterwards (regression: a poisoned conns mutex used
        // to cascade `lock().unwrap()` panics into the accept loop).
        for _ in 0..3 {
            let lines = http_get_lines(&addr, "/metrics", None).unwrap();
            assert!(!lines.is_empty());
        }
        server.stop();
    }

    /// Stops `server` on a thread of its own and fails unless `stop()`
    /// returns within 5 s, so a hang fails the test instead of hanging
    /// the suite.
    fn stops_within_5s(server: ServerHandle) {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (done, finished) = channel();
        std::thread::spawn(move || {
            server.stop();
            let _ = done.send(());
        });
        match finished.recv_timeout(Duration::from_secs(5)) {
            Ok(()) => {}
            Err(RecvTimeoutError::Timeout) => panic!("stop() hung"),
            Err(RecvTimeoutError::Disconnected) => panic!("stop() panicked"),
        }
    }

    #[test]
    fn stop_returns_for_an_idle_server() {
        let (server, _addr, _hub, _stop) = start(ServerOptions::default());
        stops_within_5s(server);
    }

    #[test]
    fn stop_returns_after_shutdown() {
        let (server, addr, _hub, stop) = start(ServerOptions::default());
        http_get_lines(&addr, "/shutdown", None).unwrap();
        assert!(stop.load(Ordering::Relaxed));
        stops_within_5s(server);
    }

    #[test]
    fn stop_wakes_a_wildcard_bind_over_loopback() {
        let server = serve(
            "0.0.0.0:0",
            MonitorHub::new(8),
            Arc::new(AtomicBool::new(false)),
        )
        .unwrap();
        let addr = format!("127.0.0.1:{}", server.addr().port());
        assert_eq!(http_get_lines(&addr, "/healthz", None).unwrap(), ["ok"]);
        stops_within_5s(server);
    }

    #[test]
    fn wake_addr_maps_wildcards_to_loopback() {
        // Linux routes a connect to 0.0.0.0 to loopback anyway, so the
        // wildcard test above passes without the mapping; pin it here.
        let wake = |a: &str| wake_addr(a.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:9100"), "127.0.0.1:9100");
        assert_eq!(wake("[::]:9100"), "[::1]:9100");
        assert_eq!(wake("10.1.2.3:9100"), "10.1.2.3:9100");
    }

    #[test]
    fn back_to_back_requests_wait_on_no_poll() {
        let (server, addr, _hub, _stop) = start(ServerOptions::default());
        let t0 = Instant::now();
        for _ in 0..50 {
            assert_eq!(http_get_lines(&addr, "/healthz", None).unwrap(), ["ok"]);
        }
        let took = t0.elapsed();
        server.stop();
        // A 20 ms accept poll made this ≈ 1 s; blocking accept ≈ 15 ms.
        assert!(
            took < Duration::from_millis(500),
            "50 requests took {took:?}"
        );
    }
}
