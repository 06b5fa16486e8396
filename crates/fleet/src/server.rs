//! The fleet endpoint: per-core routing, admission control, and
//! batched event streaming over one zero-dependency TCP listener.
//!
//! Routes:
//!
//! * `GET /fleet/metrics` — Prometheus-style text of the current
//!   [`FleetAggregate`](crate::aggregate::FleetAggregate): quantile
//!   power, coverage (`fleet_cores_reporting` / `fleet_cores_total`),
//!   degraded-shard count and the per-unit attribution rollup.
//! * `GET /fleet/events` — streaming JSONL of every shard's
//!   [`WindowBatch`](crate::batch::WindowBatch)es (one columnar record
//!   per shard per window round).
//! * `GET /cores/<id>/metrics` — latest sample for one core.
//! * `GET /cores/<id>/events` — that core's rows projected out of its
//!   shard's batches, with a per-subscriber dense `seq`.
//! * `GET /healthz` / `GET /status` — shard health from the shared
//!   [`HealthRegistry`]: a fleet with a `Degraded` shard answers `503`
//!   on `/healthz` while every other route keeps serving.
//! * `GET /shutdown` — raises the shared stop flag.
//!
//! The protocol edge reuses the introspect server's hardened
//! primitives ([`read_request_head`], bounded lines, read/write
//! timeouts) and its blocking [`Acceptor`] (thread per connection,
//! connection cap, wake-on-stop), so both serving layers accept, shed
//! and fail identically. On top of that the fleet adds **admission
//! control**: when a shard hub's deepest subscriber queue crosses
//! [`FleetServerOptions::watermark`], new event subscriptions are shed
//! with `503` + `Retry-After` instead of being admitted into an
//! already-backlogged fan-out.

use crate::shard::ShardRuntime;
use apollo_introspect::server::{
    is_timeout, read_request_head, respond, respond_with_headers, Acceptor,
};
use apollo_introspect::sync::plock;
use apollo_telemetry::FieldValue;
use std::fmt::Write as _;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fleet serving knobs (superset of the introspect server's hardening
/// options, plus the admission-control watermark).
#[derive(Clone, Debug)]
pub struct FleetServerOptions {
    /// Per-connection read timeout (stalled request ⇒ `408`).
    pub read_timeout: Duration,
    /// Per-connection write timeout (stalled event client ⇒ eviction).
    pub write_timeout: Duration,
    /// Maximum concurrent connection handlers; excess peers get `503`
    /// + `Retry-After`.
    pub max_conns: usize,
    /// Byte cap on any single request or header line (`400` beyond).
    pub max_line_bytes: usize,
    /// Admission watermark: a new event subscription against a shard
    /// hub whose deepest queue exceeds this is shed with `503`.
    pub watermark: usize,
    /// Advisory retry delay attached to every load-shedding `503`
    /// (rendered as a whole-second `Retry-After` header, rounded up).
    pub retry_after_ms: u64,
}

impl Default for FleetServerOptions {
    fn default() -> Self {
        FleetServerOptions {
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_conns: 256,
            max_line_bytes: 8 * 1024,
            watermark: 128,
            retry_after_ms: 1000,
        }
    }
}

/// Running fleet server: bound address plus lifecycle control.
pub struct FleetServerHandle {
    runtime: Arc<ShardRuntime>,
    acceptor: Acceptor,
}

impl FleetServerHandle {
    /// The bound listen address (resolves port 0 to the real port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Stops the server: closes every shard hub (ending all event
    /// streams), then stops the acceptor, which raises the stop flag
    /// and joins all server threads.
    pub fn stop(self) {
        self.runtime.close();
        self.acceptor.stop();
    }
}

/// Binds `listen` (port 0 picks a free port) and serves the fleet
/// runtime until [`FleetServerHandle::stop`].
///
/// # Errors
/// Returns the bind error if the address is unavailable.
pub fn serve_fleet(
    listen: &str,
    runtime: Arc<ShardRuntime>,
    stop: Arc<AtomicBool>,
    opts: FleetServerOptions,
) -> std::io::Result<FleetServerHandle> {
    let shed_opts = opts.clone();
    let handle = {
        let runtime = Arc::clone(&runtime);
        let stop = Arc::clone(&stop);
        move |stream| {
            // Peer noise must never take the fleet endpoint down.
            let _ = handle_connection(stream, &runtime, &stop, &opts);
        }
    };
    let acceptor = Acceptor::bind(
        listen,
        stop,
        shed_opts.max_conns,
        "fleet.http.accept_errors",
        handle,
        move |stream| {
            let _ = stream.set_write_timeout(Some(shed_opts.write_timeout));
            let _ = shed(stream, "conn_cap", &shed_opts);
        },
    )?;
    Ok(FleetServerHandle { runtime, acceptor })
}

/// Answers a load-shedding `503` with an advisory `Retry-After`.
fn shed(out: &mut TcpStream, reason: &str, opts: &FleetServerOptions) -> std::io::Result<()> {
    apollo_telemetry::counter("fleet.http.shed").inc();
    apollo_telemetry::emit_event(
        "fleet.shed",
        &[
            ("reason", FieldValue::from(reason)),
            ("retry_after_ms", FieldValue::from(opts.retry_after_ms)),
        ],
    );
    let secs = opts.retry_after_ms.div_ceil(1000).max(1);
    respond_with_headers(
        out,
        "503 Service Unavailable",
        "text/plain",
        &[("Retry-After", &secs.to_string())],
        "overloaded; retry later\n",
    )
}

fn now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

fn handle_connection(
    stream: TcpStream,
    runtime: &Arc<ShardRuntime>,
    stop: &Arc<AtomicBool>,
    opts: &FleetServerOptions,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(opts.read_timeout))?;
    stream.set_write_timeout(Some(opts.write_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let Some(path) = read_request_head(&mut reader, &mut out, opts.max_line_bytes)? else {
        return Ok(());
    };
    match path.as_str() {
        "/" => respond(
            &mut out,
            "200 OK",
            "text/plain; charset=utf-8",
            "apollo fleet: /fleet/metrics, /fleet/events, /cores/<id>/metrics, /cores/<id>/events, /healthz, /status, /shutdown\n",
        ),
        "/healthz" => {
            let healthy = runtime.health.healthy();
            apollo_telemetry::counter("fleet.healthz.scrapes").inc();
            if healthy {
                respond(&mut out, "200 OK", "text/plain", "ok\n")
            } else {
                respond(&mut out, "503 Service Unavailable", "text/plain", "degraded\n")
            }
        }
        "/status" => {
            let snap = runtime.health.snapshot(Vec::new());
            let status = if snap.healthy {
                "200 OK"
            } else {
                "503 Service Unavailable"
            };
            let body = format!("{}\n", snap.to_jsonl());
            respond(&mut out, status, "application/json", &body)
        }
        "/fleet/metrics" => {
            let agg = runtime.snapshot(now_ns());
            apollo_telemetry::counter("fleet.scrapes").inc();
            apollo_telemetry::emit_event(
                "fleet.coverage",
                &[
                    ("window", FieldValue::from(agg.window)),
                    ("cores_reporting", FieldValue::from(agg.cores_reporting)),
                    ("cores_total", FieldValue::from(agg.cores_total)),
                ],
            );
            respond(&mut out, "200 OK", "text/plain; version=0.0.4", &fleet_gauges(&agg))
        }
        "/fleet/events" => {
            if runtime.hubs.iter().any(|h| h.max_depth() > opts.watermark) {
                return shed(&mut out, "watermark", opts);
            }
            stream_fleet_events(&mut out, runtime, stop)
        }
        "/shutdown" => {
            stop.store(true, Ordering::Relaxed);
            respond(&mut out, "200 OK", "text/plain", "shutting down\n")
        }
        p => {
            if let Some(rest) = p.strip_prefix("/cores/") {
                match rest.split_once('/') {
                    Some((core, "metrics")) => return core_metrics(&mut out, runtime, core),
                    Some((core, "events")) => {
                        let Some(&shard) = runtime.core_shard.get(core) else {
                            return respond(&mut out, "404 Not Found", "text/plain", "unknown core\n");
                        };
                        if runtime.hubs[shard].max_depth() > opts.watermark {
                            return shed(&mut out, "watermark", opts);
                        }
                        return stream_core_events(&mut out, runtime, shard, core, stop);
                    }
                    _ => {}
                }
            }
            respond(&mut out, "404 Not Found", "text/plain", "unknown path\n")
        }
    }
}

/// Renders the fleet aggregate as Prometheus-style gauge text.
fn fleet_gauges(agg: &crate::aggregate::FleetAggregate) -> String {
    let mut body = String::new();
    let rows: [(&str, f64); 9] = [
        ("fleet_cores_total", agg.cores_total as f64),
        ("fleet_cores_reporting", agg.cores_reporting as f64),
        ("fleet_shards_degraded", agg.shards_degraded as f64),
        ("fleet_window", agg.window as f64),
        ("fleet_p50_power", agg.p50_power),
        ("fleet_p99_power", agg.p99_power),
        ("fleet_mean_power", agg.mean_power),
        ("fleet_alarms", agg.alarms as f64),
        ("fleet_energy", agg.energy),
    ];
    for (name, value) in rows {
        let _ = writeln!(body, "# TYPE {name} gauge");
        let _ = writeln!(body, "{name} {value}");
    }
    if !agg.unit_labels.is_empty() {
        let _ = writeln!(body, "# TYPE fleet_unit_raw gauge");
        for (label, raw) in agg.unit_labels.iter().zip(&agg.unit_raw) {
            let _ = writeln!(body, "fleet_unit_raw{{unit=\"{label}\"}} {raw}");
        }
    }
    body
}

/// Latest single-core sample, or `404` for an unknown/parked core.
fn core_metrics(
    out: &mut TcpStream,
    runtime: &Arc<ShardRuntime>,
    core: &str,
) -> std::io::Result<()> {
    let sample = plock(&runtime.aggregator).core_sample(core).cloned();
    let Some(s) = sample else {
        return respond(out, "404 Not Found", "text/plain", "unknown core\n");
    };
    let mut body = String::new();
    let rows: [(&str, f64); 5] = [
        ("fleet_core_window", s.window as f64),
        ("fleet_core_est_power", s.est_power),
        ("fleet_core_true_power", s.true_power),
        ("fleet_core_alarms", s.alarms as f64),
        ("fleet_core_energy", s.energy),
    ];
    for (name, value) in rows {
        let _ = writeln!(body, "# TYPE {name} gauge");
        let _ = writeln!(body, "{name}{{core=\"{core}\"}} {value}");
    }
    respond(out, "200 OK", "text/plain; version=0.0.4", &body)
}

fn write_ndjson_head(out: &mut TcpStream) -> std::io::Result<()> {
    write!(
        out,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
    )?;
    out.flush()
}

/// Streams every shard's batches (original per-shard `seq` kept) until
/// all hubs close, the stop flag rises, or the client stalls out.
fn stream_fleet_events(
    out: &mut TcpStream,
    runtime: &Arc<ShardRuntime>,
    stop: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    use crate::batch::BatchPoll;
    let subs: Vec<_> = runtime.hubs.iter().map(|h| h.subscribe()).collect();
    write_ndjson_head(out)?;
    let mut open: Vec<bool> = vec![true; subs.len()];
    while open.iter().any(|&o| o) {
        let mut progressed = false;
        for (i, sub) in subs.iter().enumerate() {
            if !open[i] {
                continue;
            }
            match sub.poll(Duration::from_millis(20)) {
                BatchPoll::Batch(b) => {
                    progressed = true;
                    if let Err(e) = writeln!(out, "{}", b.to_jsonl()).and_then(|()| out.flush()) {
                        if is_timeout(&e) {
                            apollo_telemetry::counter("fleet.http.slow_evicted").inc();
                        }
                        return Ok(());
                    }
                }
                BatchPoll::Timeout => {}
                BatchPoll::Closed => open[i] = false,
            }
        }
        if !progressed && stop.load(Ordering::Relaxed) && runtime.hubs.iter().all(|h| h.closed()) {
            break;
        }
    }
    Ok(())
}

/// Streams one core's projected rows with a per-subscriber dense `seq`
/// (re-stamped at send time, so delivered streams pass `trace-lint`
/// even after hub-side drops).
fn stream_core_events(
    out: &mut TcpStream,
    runtime: &Arc<ShardRuntime>,
    shard: usize,
    core: &str,
    stop: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    use crate::batch::BatchPoll;
    let sub = runtime.hubs[shard].subscribe();
    write_ndjson_head(out)?;
    let mut seq = 0u64;
    loop {
        match sub.poll(Duration::from_millis(100)) {
            BatchPoll::Batch(b) => {
                let Some(row) = b.project_core(core, seq) else {
                    continue;
                };
                seq += 1;
                if let Err(e) = writeln!(out, "{}", row.to_jsonl()).and_then(|()| out.flush()) {
                    if is_timeout(&e) {
                        apollo_telemetry::counter("fleet.http.slow_evicted").inc();
                    }
                    return Ok(());
                }
            }
            BatchPoll::Timeout => {
                if stop.load(Ordering::Relaxed) && runtime.hubs[shard].closed() {
                    return Ok(());
                }
            }
            BatchPoll::Closed => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::FleetAggregator;
    use crate::batch::{BatchHub, WindowBatch};
    use crate::core::CoreWindow;
    use apollo_introspect::server::http_get_lines;
    use apollo_introspect::{http_get, HealthRegistry};
    use apollo_telemetry::framing;
    use std::collections::BTreeMap;
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::sync::Mutex;

    fn test_batch(shard: u64, seq: u64, window: u64, cores: &[&str]) -> WindowBatch {
        let rows: Vec<(String, Vec<String>, CoreWindow)> = cores
            .iter()
            .enumerate()
            .map(|(i, id)| {
                (
                    (*id).to_owned(),
                    vec!["alu".to_owned()],
                    CoreWindow {
                        window,
                        est_power: 1.0 + i as f64,
                        true_power: 1.0,
                        raw: 4,
                        out: 1,
                        alarms: 0,
                        energy: 8.0,
                        unit_raw: vec![4],
                    },
                )
            })
            .collect();
        WindowBatch::from_rows(shard, seq, window, &rows)
    }

    fn test_runtime(cores: &[&str]) -> Arc<ShardRuntime> {
        let mut core_shard = BTreeMap::new();
        for c in cores {
            core_shard.insert((*c).to_owned(), 0usize);
        }
        Arc::new(ShardRuntime {
            hubs: vec![BatchHub::new(8)],
            health: Arc::new(HealthRegistry::new()),
            aggregator: Mutex::new(FleetAggregator::new(cores.len(), 2)),
            core_shard,
            cores_total: cores.len(),
        })
    }

    fn start(
        runtime: &Arc<ShardRuntime>,
        opts: FleetServerOptions,
    ) -> (FleetServerHandle, String, Arc<AtomicBool>) {
        let stop = Arc::new(AtomicBool::new(false));
        let server =
            serve_fleet("127.0.0.1:0", Arc::clone(runtime), Arc::clone(&stop), opts).unwrap();
        let addr = server.addr().to_string();
        (server, addr, stop)
    }

    #[test]
    fn routes_serve_fleet_and_core_metrics() {
        let runtime = test_runtime(&["c0", "c1"]);
        plock(&runtime.aggregator).ingest(&test_batch(0, 0, 3, &["c0", "c1"]));
        let (server, addr, _stop) = start(&runtime, FleetServerOptions::default());
        let index = http_get_lines(&addr, "/", None).unwrap();
        assert!(index[0].contains("/fleet/metrics"), "{index:?}");
        let metrics = http_get_lines(&addr, "/fleet/metrics", None).unwrap();
        assert!(
            metrics.iter().any(|l| l == "fleet_cores_total 2"),
            "{metrics:?}"
        );
        assert!(
            metrics.iter().any(|l| l == "fleet_unit_raw{unit=\"alu\"} 8"),
            "{metrics:?}"
        );
        let core = http_get_lines(&addr, "/cores/c1/metrics", None).unwrap();
        assert!(
            core.iter().any(|l| l == "fleet_core_est_power{core=\"c1\"} 2"),
            "{core:?}"
        );
        let missing = http_get(&addr, "/cores/zz/metrics", None, Duration::from_secs(5)).unwrap();
        assert_eq!(missing.status, 404);
        let health = http_get_lines(&addr, "/healthz", None).unwrap();
        assert_eq!(health, vec!["ok"]);
        server.stop();
    }

    #[test]
    fn degraded_fleet_fails_healthz_but_keeps_serving() {
        let runtime = test_runtime(&["c0"]);
        runtime.health.report_state("shard0", "degraded", 3, 0);
        let (server, addr, _stop) = start(&runtime, FleetServerOptions::default());
        let res = http_get(&addr, "/healthz", None, Duration::from_secs(5)).unwrap();
        assert_eq!(res.status, 503);
        let metrics = http_get_lines(&addr, "/fleet/metrics", None).unwrap();
        assert!(!metrics.is_empty(), "metrics keep serving while degraded");
        server.stop();
    }

    #[test]
    fn watermark_sheds_events_with_retry_after() {
        let runtime = test_runtime(&["c0"]);
        let opts = FleetServerOptions {
            watermark: 1,
            retry_after_ms: 2500,
            ..FleetServerOptions::default()
        };
        // A parked subscriber backs the hub queue up past the
        // watermark before the scrape arrives.
        let parked = runtime.hubs[0].subscribe();
        for seq in 0..3 {
            runtime.hubs[0].publish(test_batch(0, seq, seq, &["c0"]));
        }
        let (server, addr, _stop) = start(&runtime, opts);
        let res = http_get(&addr, "/fleet/events", None, Duration::from_secs(5)).unwrap();
        assert_eq!(res.status, 503);
        assert_eq!(res.retry_after_ms, Some(3000), "2500ms rounds up to 3s");
        let res = http_get(&addr, "/cores/c0/events", None, Duration::from_secs(5)).unwrap();
        assert_eq!(res.status, 503);
        drop(parked);
        server.stop();
    }

    #[test]
    fn core_events_project_with_dense_seq() {
        let runtime = test_runtime(&["c0", "c1"]);
        let (server, addr, _stop) = start(&runtime, FleetServerOptions::default());
        let publisher = {
            let runtime = Arc::clone(&runtime);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(150));
                for seq in 0..4u64 {
                    runtime.hubs[0].publish(test_batch(0, seq, seq, &["c0", "c1"]));
                }
                runtime.hubs[0].close();
            })
        };
        let lines = http_get_lines(&addr, "/cores/c1/events", Some(4)).unwrap();
        publisher.join().unwrap();
        assert_eq!(lines.len(), 4, "{lines:?}");
        for (i, l) in lines.iter().enumerate() {
            let b: WindowBatch = framing::validate_framed(l).unwrap();
            assert_eq!(b.seq, i as u64, "dense per-subscriber seq");
            assert_eq!(b.cores, vec!["c1"]);
        }
        server.stop();
    }

    #[test]
    fn shutdown_raises_the_shared_stop_flag() {
        let runtime = test_runtime(&["c0"]);
        let (server, addr, stop) = start(&runtime, FleetServerOptions::default());
        let lines = http_get_lines(&addr, "/shutdown", None).unwrap();
        assert!(lines.iter().any(|l| l.contains("shutting down")));
        assert!(stop.load(Ordering::Relaxed));
        server.stop();
    }

    /// Stops `server` on a thread of its own and fails unless `stop()`
    /// returns within 5 s, so a hang fails the test instead of hanging
    /// the suite.
    fn stops_within_5s(server: FleetServerHandle) {
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
        let (server, _addr, _stop) = start(&test_runtime(&["c0"]), FleetServerOptions::default());
        stops_within_5s(server);
    }

    #[test]
    fn stop_returns_after_shutdown() {
        let (server, addr, stop) = start(&test_runtime(&["c0"]), FleetServerOptions::default());
        http_get_lines(&addr, "/shutdown", None).unwrap();
        assert!(stop.load(Ordering::Relaxed));
        stops_within_5s(server);
    }

    #[test]
    fn stop_wakes_a_wildcard_bind_over_loopback() {
        let server = serve_fleet(
            "0.0.0.0:0",
            test_runtime(&["c0"]),
            Arc::new(AtomicBool::new(false)),
            FleetServerOptions::default(),
        )
        .unwrap();
        let addr = format!("127.0.0.1:{}", server.addr().port());
        assert_eq!(http_get_lines(&addr, "/healthz", None).unwrap(), ["ok"]);
        stops_within_5s(server);
    }
}
