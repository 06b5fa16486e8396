//! Load against the fleet endpoint: an open-loop scraper and one
//! `/fleet/events` subscriber, two threads in all.
//!
//! The scraper sends on a fixed schedule whatever the endpoint does, one
//! connection at a time, and times each request from when it was *due*:
//! a stalled request makes the ones behind it late, and that wait is
//! counted in their latency. How late the generator itself ran is
//! reported too.

use crate::stats::Fnv;
use apollo_fleet::{serve_fleet, FleetServerHandle, FleetServerOptions, ShardRuntime, WindowBatch};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Open-loop schedule: request `k` is due at `start + k·period`.
pub struct Schedule {
    start: Instant,
    period: Duration,
    k: u32,
}

impl Schedule {
    pub fn new(start: Instant, period: Duration) -> Self {
        Schedule {
            start,
            period,
            k: 0,
        }
    }

    pub fn next_due(&self) -> Instant {
        self.start + self.period * self.k
    }

    /// Drops the requests that fell due before `now`, keeping the
    /// schedule's phase.
    pub fn skip_to(&mut self, now: Instant) {
        while self.next_due() < now {
            self.k += 1;
        }
    }

    /// Accounts the request due now, sent at `sent` and answered at
    /// `done`: returns `(latency from due, generator lateness)` in ms.
    pub fn record(&mut self, sent: Instant, done: Instant) -> (f64, f64) {
        let due = self.next_due();
        self.k += 1;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        (
            ms(done.saturating_duration_since(due)),
            ms(sent.saturating_duration_since(due)),
        )
    }
}

/// One scrape.
pub struct Scrape {
    pub path: String,
    pub ok: bool,
    pub status: u16,
    pub latency_ms: f64,
    pub late_ms: f64,
    pub connect_ms: f64,
    pub first_byte_ms: f64,
}

/// One batch received on `/fleet/events`.
pub struct Received {
    pub shard: u64,
    pub seq: u64,
    /// From the batch's `ts_ns` stamp to receipt.
    pub lag_ms: f64,
    /// Digest of the batch's `ts_ns`-stripped JSONL.
    pub digest: u64,
}

/// The `/fleet/events` stream as the subscriber saw it.
#[derive(Default)]
pub struct Stream {
    pub batches: Vec<Received>,
    /// Lines that did not validate as framed `WindowBatch` records.
    pub malformed: u64,
}

/// Digest of a batch's `ts_ns`-stripped JSONL.
pub fn batch_digest(b: &WindowBatch) -> u64 {
    let mut h = Fnv::default();
    h.str(&b.strip_timing().to_jsonl());
    h.0
}

/// What the load threads saw during one rep.
pub struct LoadLog {
    pub scrapes: Vec<Scrape>,
    /// In-process `ShardRuntime::snapshot` times (traced runs only).
    pub snapshot_ns: Vec<f64>,
    pub stream: Stream,
    pub events_error: Option<String>,
}

pub struct Resp {
    pub status: u16,
    pub connect: Duration,
    pub first_byte: Duration,
    pub body: String,
}

/// One `GET` on a fresh connection, read to EOF.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<Resp> {
    let t0 = Instant::now();
    let mut s = TcpStream::connect_timeout(&addr, timeout)?;
    let connect = t0.elapsed();
    s.set_read_timeout(Some(timeout))?;
    s.set_write_timeout(Some(timeout))?;
    s.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut first_byte = None;
    loop {
        let n = s.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        first_byte.get_or_insert_with(|| t0.elapsed());
        buf.extend_from_slice(&chunk[..n]);
    }
    let text = String::from_utf8_lossy(&buf).into_owned();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_owned();
    Ok(Resp {
        status,
        connect,
        first_byte: first_byte.unwrap_or_else(|| t0.elapsed()),
        body,
    })
}

fn now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Reads `/fleet/events` to its end. Each line is checked and reduced to
/// a few numbers as it arrives, so the subscriber holds no stream text.
fn subscribe(addr: SocketAddr) -> Result<Stream, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect /fleet/events: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(20)))
        .map_err(|e| e.to_string())?;
    s.write_all(b"GET /fleet/events HTTP/1.1\r\nHost: bench\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut r = BufReader::new(s);
    let mut line = String::new();
    r.read_line(&mut line).map_err(|e| e.to_string())?;
    if !line.starts_with("HTTP/1.1 200") {
        return Err(format!("/fleet/events answered `{}`", line.trim_end()));
    }
    loop {
        line.clear();
        r.read_line(&mut line).map_err(|e| e.to_string())?;
        if line.trim_end().is_empty() {
            break;
        }
    }
    let mut stream = Stream::default();
    loop {
        line.clear();
        let n = r
            .read_line(&mut line)
            .map_err(|e| format!("/fleet/events read: {e}"))?;
        if n == 0 {
            return Ok(stream);
        }
        let recv_ns = now_ns();
        match apollo_telemetry::framing::validate_framed::<WindowBatch>(line.trim_end()) {
            Ok(b) => stream.batches.push(Received {
                shard: b.shard,
                seq: b.seq,
                lag_ms: recv_ns.saturating_sub(b.ts_ns) as f64 / 1e6,
                digest: batch_digest(&b),
            }),
            Err(_) => stream.malformed += 1,
        }
    }
}

/// A running endpoint with its two load threads.
pub struct Load {
    server: FleetServerHandle,
    stop: Arc<AtomicBool>,
    scraper: JoinHandle<(Vec<Scrape>, Vec<f64>)>,
    events: JoinHandle<Result<Stream, String>>,
}

impl Load {
    /// Serves `runtime` on an ephemeral port, subscribes to
    /// `/fleet/events` (returning once the subscription is live on every
    /// shard hub) and starts scraping `routes` every `period`.
    pub fn start(
        runtime: &Arc<ShardRuntime>,
        routes: Vec<String>,
        period: Duration,
        time_snapshots: bool,
    ) -> Result<Load, String> {
        let server_stop = Arc::new(AtomicBool::new(false));
        let served_at = Instant::now();
        let server = serve_fleet(
            "127.0.0.1:0",
            Arc::clone(runtime),
            server_stop,
            FleetServerOptions::default(),
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.addr();
        let subscribed_before: Vec<usize> = runtime.hubs.iter().map(|h| h.active()).collect();
        let events = std::thread::spawn(move || subscribe(addr));
        let t = Instant::now();
        while runtime
            .hubs
            .iter()
            .zip(&subscribed_before)
            .any(|(h, &n)| h.active() <= n)
        {
            if t.elapsed() > Duration::from_secs(5) || events.is_finished() {
                server.stop();
                return Err(match events.join() {
                    Ok(Err(e)) => e,
                    _ => "the /fleet/events subscription did not register".to_owned(),
                });
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let scraper = {
            let stop = Arc::clone(&stop);
            let runtime = Arc::clone(runtime);
            std::thread::spawn(move || {
                // Scrape from every shard's first published round on:
                // before it, `/cores/<id>/metrics` rightly answers 404.
                while runtime.hubs.iter().any(|h| h.max_depth() == 0) {
                    if stop.load(Ordering::Relaxed) {
                        return (Vec::new(), Vec::new());
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                // Requests fall due from the endpoint's start, so every rep
                // meets its listener's poll at the same phases. Counted
                // from the first round instead, a rep's few poll sweeps
                // began at a random phase, and run medians of scrape
                // latency spread up to 5.7% (1.2% anchored).
                let mut sched = Schedule::new(served_at, period);
                sched.skip_to(Instant::now());
                let mut out = Vec::new();
                let mut snapshots = Vec::new();
                for path in routes.iter().cycle() {
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            return (out, snapshots);
                        }
                        let wait = sched.next_due().saturating_duration_since(Instant::now());
                        if wait.is_zero() {
                            break;
                        }
                        std::thread::sleep(wait.min(Duration::from_millis(5)));
                    }
                    let sent = Instant::now();
                    let resp = get(addr, path, Duration::from_secs(2));
                    let done = Instant::now();
                    let (latency_ms, late_ms) = sched.record(sent, done);
                    let ms = |d: Duration| d.as_secs_f64() * 1e3;
                    out.push(match resp {
                        Ok(r) => Scrape {
                            ok: r.status == 200
                                && (path != "/fleet/metrics"
                                    || r.body.contains("fleet_cores_total")),
                            status: r.status,
                            latency_ms,
                            late_ms,
                            connect_ms: ms(r.connect),
                            first_byte_ms: ms(r.first_byte),
                            path: path.clone(),
                        },
                        Err(_) => Scrape {
                            ok: false,
                            status: 0,
                            latency_ms,
                            late_ms,
                            connect_ms: latency_ms,
                            first_byte_ms: latency_ms,
                            path: path.clone(),
                        },
                    });
                    if time_snapshots && path == "/fleet/metrics" {
                        let s0 = Instant::now();
                        std::hint::black_box(runtime.snapshot(now_ns()));
                        snapshots.push(s0.elapsed().as_nanos() as f64);
                    }
                }
                (out, snapshots)
            })
        };
        Ok(Load {
            server,
            stop,
            scraper,
            events,
        })
    }

    /// Stops scraping, ends the event stream, stops the endpoint and
    /// joins every thread.
    pub fn finish(self, runtime: &ShardRuntime) -> LoadLog {
        self.stop.store(true, Ordering::Relaxed);
        let (scrapes, snapshot_ns) = self.scraper.join().expect("scraper thread");
        runtime.close();
        let (stream, events_error) = match self.events.join().expect("events thread") {
            Ok(stream) => (stream, None),
            Err(e) => (Stream::default(), Some(e)),
        };
        self.server.stop();
        LoadLog {
            scrapes,
            snapshot_ns,
            stream,
            events_error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_counts_the_wait_a_stall_imposes() {
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let mut s = Schedule::new(t0, Duration::from_millis(20));
        let mut check = |sent, done, want: (f64, f64)| {
            let got = s.record(ms(sent), ms(done));
            assert!(
                (got.0 - want.0).abs() < 1e-9 && (got.1 - want.1).abs() < 1e-9,
                "{got:?}"
            );
        };
        // Due at 0: sent on time, answered at 50 (a 50 ms stall).
        check(0, 50, (50.0, 0.0));
        // Due at 20 but sent at 50: 30 ms late, and its latency counts
        // from 20, not from when it was sent.
        check(50, 55, (35.0, 30.0));
        // Due at 40, still behind.
        check(55, 57, (17.0, 15.0));
        // Due at 60: back on schedule.
        check(60, 61, (1.0, 0.0));
        assert_eq!(s.next_due(), ms(80));
        // Requests due before the endpoint could serve them are dropped,
        // not sent late; the phase stays.
        s.skip_to(ms(125));
        assert_eq!(s.next_due(), ms(140));
        s.skip_to(ms(140));
        assert_eq!(s.next_due(), ms(140));
    }
}
