//! # apollo-introspect
//!
//! Runtime power introspection service for the APOLLO reproduction:
//! the paper's motivating use case — "runtime power introspection in
//! high-volume commercial microprocessors" — turned into a long-lived
//! observable pipeline:
//!
//! * [`monitor`] — drives a workload through the simulator, reads the
//!   quantized OPM every `T`-cycle window, decomposes the estimate
//!   per functional unit ([`apollo_opm::attribution`]), tracks model
//!   health with EWMA/CUSUM drift detectors ([`apollo_opm::drift`]),
//!   and can arm the fail-safe throttle actuator on sustained drift;
//! * [`ring`] — bounded drop-oldest window history with exact
//!   full-stream aggregates (mean / peak / cumulative energy);
//! * [`hub`] — non-blocking fan-out to streaming subscribers with
//!   bounded per-subscriber queues (drop-oldest plus drop counters:
//!   a slow reader never stalls the simulation loop);
//! * [`server`] — zero-dependency TCP endpoint speaking Prometheus
//!   text on `/metrics` and schema-versioned JSONL on `/events`, with
//!   `/shutdown` for signal-free termination; hardened against
//!   malformed, stalled, and excess peers ([`server::ServerOptions`]);
//!   its blocking [`server::Acceptor`] is the accept loop the fleet
//!   endpoint shares;
//! * [`health`] — the fleet health surface behind the server's
//!   `/healthz` and `/status` endpoints: a shared registry the
//!   monitor and supervisor write into, snapshotted as a versioned,
//!   lintable [`health::StatusSnapshot`];
//! * [`supervisor`] — fleet supervision with panic isolation,
//!   deterministic exponential backoff, checkpoint-driven resume and
//!   a circuit breaker into a `Degraded` state exported on `/metrics`;
//! * [`checkpoint`] — versioned, CRC-guarded, atomically-written
//!   snapshots of the monitor's durable state;
//! * [`chaos`] — seeded, replayable fault plans plus the client-side
//!   drivers the chaos differential tests and `repro_chaos` share;
//! * [`client`] — retrying HTTP client with jitter-free deterministic
//!   backoff and `Retry-After` awareness, used by `apollo scrape` and
//!   the fleet smoke harnesses;
//! * [`sync`] — poison-proof locking for the serving layer.
//!
//! # Determinism contract
//!
//! All published *values* — attribution, drift state, window series,
//! the final [`MonitorReport`] — are computed in cycle order from the
//! serial monitor loop and are bit-identical across simulator thread
//! counts. Wall-clock data is confined to `ts_ns` record fields and
//! `_ns` metrics, exactly as in `apollo-telemetry`. With no
//! subscribers attached, the pipeline's outputs are bit-exact with an
//! offline capture + [`apollo_opm::QuantizedOpm::predict_windows`] /
//! [`apollo_core::windowed_eval`] over the same cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod checkpoint;
pub mod client;
pub mod health;
pub mod hub;
pub mod monitor;
pub mod ring;
pub mod server;
pub mod supervisor;
pub mod sync;

pub use chaos::{ChaosPlan, ChaosRng, MalformedKind, ServiceFault};
pub use checkpoint::{CheckpointError, CheckpointPolicy, MonitorSnapshot};
pub use client::{http_get, http_get_lines_retry, HttpResponse, RetryPolicy};
pub use health::{
    HealthRegistry, PipelineHealth, StatusSnapshot, SubscriberStatus, STATUS_VERSION,
};
pub use hub::{DownsampleConfig, MonitorHub, Poll, Subscriber, Traced};
pub use monitor::{run_monitor, run_monitor_with, MonitorConfig, MonitorReport, RunOptions};
pub use ring::{History, HistoryAggregates, HistoryStats, WindowRecord};
pub use server::{
    http_get_lines, is_timeout, read_line_bounded, read_request_head, respond,
    respond_with_headers, serve, serve_with, Acceptor, LineRead, ServerHandle, ServerOptions,
};
pub use supervisor::{
    fleet_specs, panic_text, run_supervised, BackoffPolicy, Decision, InjectedPanic,
    PipelineOutcome, PipelineSpec, PipelineState, SupervisorConfig, SupervisorReport,
};
