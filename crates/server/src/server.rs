//! The control-plane server: a bounded worker pool over a `TcpListener`,
//! dispatching the versioned `/v1` API onto a [`CampaignService`].
//!
//! # Backpressure
//!
//! The acceptor never spawns per-connection threads. Accepted sockets go
//! into a bounded queue drained by a fixed worker pool; when the queue is
//! full the acceptor answers `503 Service Unavailable` (with
//! `Retry-After`) on the spot and closes — saturation costs one small
//! write and a non-blocking discard of the request bytes already received
//! (so the close is not a reset), not a thread. A second, application-level valve protects the
//! service itself: when the number of non-terminal campaigns reaches
//! `max_pending_campaigns`, submissions and imports get `429 Too Many
//! Requests` while cheap status reads keep working. Both rejections are
//! counted (`server_backpressure_total`, `server_throttled_total`).
//!
//! # Routes
//!
//! | Method & path                      | Meaning                                  |
//! |------------------------------------|------------------------------------------|
//! | `POST /v1/campaigns`               | submit `{"priority":P,"spec":{...}}`     |
//! | `GET /v1/campaigns/{id}`           | status                                   |
//! | `GET /v1/campaigns/{id}/wait`      | status, blocking up to `?timeout_ms=T`   |
//! | `GET /v1/campaigns/{id}/result`    | body *is* the finished coverage report   |
//! | `GET /v1/campaigns/{id}/checkpoint`| export checkpoint (preempts, detaches)   |
//! | `POST /v1/campaigns/import`        | admit a foreign checkpoint               |
//! | `POST /v1/drain`                   | checkpoint everything, stop accepting    |
//! | `GET /metrics`                     | Prometheus text exposition               |

use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use taopt_service::checkpoint as ckpt_codec;
use taopt_service::{CampaignId, CampaignService, CampaignSpec, CampaignStatus, ServiceError};
use taopt_telemetry::Labels;
use taopt_ui_model::json::Value;

use crate::http::{
    read_request, write_response, HttpError, Request, Response, IO_TIMEOUT, MAX_HEAD_BYTES,
};
use crate::wire;

/// Server knobs. The defaults favor a small, fully bounded footprint.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Accepted connections waiting for a worker before the acceptor
    /// starts answering 503.
    pub queue_depth: usize,
    /// Non-terminal campaigns before submissions/imports get 429.
    pub max_pending_campaigns: usize,
    /// Hard cap on the `wait` route's `timeout_ms` parameter.
    pub max_wait: Duration,
}

impl ServerConfig {
    /// Defaults on `addr`: 4 workers, 64 queued connections, 256 pending
    /// campaigns, 30 s wait cap.
    pub fn new(addr: impl Into<String>) -> Self {
        ServerConfig {
            addr: addr.into(),
            workers: 4,
            queue_depth: 64,
            max_pending_campaigns: 256,
            max_wait: Duration::from_secs(30),
        }
    }
}

/// Anything that can stop the server from starting.
pub type StartError = std::io::Error;

struct Inner {
    service: CampaignService,
    config: ServerConfig,
    stop: AtomicBool,
}

/// A running control-plane server. [`ServerHandle::stop`] shuts the
/// listener and workers down and hands the wrapped service back.
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Starts a server wrapping `service` per `config`.
pub fn serve(service: CampaignService, config: ServerConfig) -> Result<ServerHandle, StartError> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let workers = config.workers.max(1);
    let queue_depth = config.queue_depth.max(1);
    let inner = Arc::new(Inner {
        service,
        config,
        stop: AtomicBool::new(false),
    });

    let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(queue_depth);
    let rx = Arc::new(Mutex::new(rx));
    let worker_handles: Vec<JoinHandle<()>> = (0..workers)
        .map(|_| {
            let rx = Arc::clone(&rx);
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || worker_loop(&rx, &inner))
        })
        .collect();
    let acceptor = {
        let inner = Arc::clone(&inner);
        std::thread::spawn(move || acceptor_loop(&listener, tx, &inner))
    };

    Ok(ServerHandle {
        inner,
        addr,
        acceptor: Some(acceptor),
        workers: worker_handles,
    })
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wrapped service, for in-process observation alongside the
    /// wire API.
    pub fn service(&self) -> &CampaignService {
        &self.inner.service
    }

    /// Stops accepting, drains in-flight requests, joins every thread,
    /// and returns the wrapped service (so the caller can `shutdown`,
    /// `crash`, or keep using it in-process).
    pub fn stop(mut self) -> CampaignService {
        self.inner.stop.store(true, Ordering::SeqCst);
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let mut inner = self.inner;
        // Every thread holding a clone has been joined; the unwrap can
        // only race the brief window inside a just-finished join.
        loop {
            match Arc::try_unwrap(inner) {
                Ok(i) => return i.service,
                Err(back) => {
                    inner = back;
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Accepts connections and feeds the bounded worker queue; answers 503
/// inline when the queue is full.
fn acceptor_loop(listener: &TcpListener, tx: SyncSender<TcpStream>, inner: &Arc<Inner>) {
    let backpressure = taopt_telemetry::global().counter("server_backpressure_total");
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(mut stream)) => {
                backpressure.inc();
                let _ = write_response(
                    &mut stream,
                    &Response::error(503, "request queue is full; retry later"),
                );
                close_shed(stream);
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

/// Closes a shed connection so the client can read its 503. Closing a
/// socket with unread request bytes makes the kernel send a reset, which
/// can discard the response before the client reads it. So the write side
/// is shut first and whatever request bytes have already arrived (up to
/// [`MAX_HEAD_BYTES`]) are read and discarded. The reads never block, so
/// shedding still costs the acceptor no waiting.
fn close_shed(mut stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let mut sink = [0u8; 4096];
    let mut budget = MAX_HEAD_BYTES;
    while budget > 0 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

/// Drains the connection queue until the acceptor hangs up.
fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, inner: &Inner) {
    loop {
        // Hold the lock only for the dequeue, not for the handling.
        let stream = match rx.lock().recv() {
            Ok(s) => s,
            Err(_) => return,
        };
        handle_connection(stream, inner);
    }
}

/// Reads one request, dispatches it, writes one response, closes.
fn handle_connection(mut stream: TcpStream, inner: &Inner) {
    let telemetry = taopt_telemetry::global();
    let start = Instant::now();
    // A stalled peer frees its worker.
    let request = stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(HttpError::from)
        .and_then(|()| read_request(&mut stream));
    let (route, response) = match request {
        Ok(request) => dispatch(&request, inner),
        Err(e) => ("bad-request", Response::error(400, &e.to_string())),
    };
    telemetry
        .counter_labeled("server_requests_total", Labels::kind(route))
        .inc();
    if response.status >= 400 {
        telemetry
            .counter_labeled("server_errors_total", Labels::kind(route))
            .inc();
    }
    telemetry
        .histogram_labeled("server_request_latency_us", Labels::kind(route))
        .record(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
    let _ = write_response(&mut stream, &response);
}

/// Maps a [`ServiceError`] onto the wire: not-found, conflict, bad input
/// and internal faults are distinguishable to a remote caller.
fn service_error_response(e: &ServiceError) -> Response {
    let status = match e {
        ServiceError::UnknownCampaign(_) => 404,
        ServiceError::Rejected(_) | ServiceError::DigestMismatch { .. } => 409,
        ServiceError::Corrupt { .. }
        | ServiceError::UnsupportedVersion { .. }
        | ServiceError::Malformed(_)
        | ServiceError::UnknownApp(_) => 400,
        ServiceError::Io(_) => 500,
    };
    Response::error(status, &e.to_string())
}

/// True when the service already tracks `max_pending_campaigns`
/// non-terminal campaigns (the 429 valve for submit/import).
fn at_pending_cap(inner: &Inner) -> bool {
    inner.service.pending_campaigns() >= inner.config.max_pending_campaigns
}

/// Routes one request. Returns the route label (for telemetry) and the
/// response.
fn dispatch(request: &Request, inner: &Inner) -> (&'static str, Response) {
    let segments = request.segments();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["metrics"]) => ("metrics", Response::text(200, inner.service.metrics_text())),
        ("POST", ["v1", "drain"]) => {
            let ids = inner.service.drain();
            (
                "drain",
                Response::json(200, wire::drained_to_value(&ids).to_json_string()),
            )
        }
        ("POST", ["v1", "campaigns"]) => ("submit", handle_submit(request, inner)),
        ("POST", ["v1", "campaigns", "import"]) => ("import", handle_import(request, inner)),
        ("GET", ["v1", "campaigns", id]) => ("status", handle_status(id, inner)),
        ("GET", ["v1", "campaigns", id, "wait"]) => ("wait", handle_wait(request, id, inner)),
        ("GET", ["v1", "campaigns", id, "result"]) => ("result", handle_result(id, inner)),
        ("GET", ["v1", "campaigns", id, "checkpoint"]) => ("export", handle_export(id, inner)),
        (_, ["metrics"]) | (_, ["v1", ..]) => {
            ("unknown", Response::error(405, "method not allowed"))
        }
        _ => ("unknown", Response::error(404, "no such route")),
    }
}

fn parse_id(raw: &str) -> Result<CampaignId, Response> {
    raw.parse::<u64>()
        .map(CampaignId)
        .map_err(|_| Response::error(400, &format!("campaign id `{raw}` is not a u64")))
}

fn handle_submit(request: &Request, inner: &Inner) -> Response {
    if at_pending_cap(inner) {
        taopt_telemetry::global()
            .counter("server_throttled_total")
            .inc();
        return Response::error(429, "too many pending campaigns; retry later");
    }
    let v = match Value::parse(&request.body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("body is not json: {e}")),
    };
    let priority = match v.require("priority").ok().and_then(|p| p.as_u64()) {
        Some(p) if p <= u8::MAX as u64 => p as u8,
        _ => return Response::error(400, "field `priority` must be a u8"),
    };
    let spec = match v.require("spec").and_then(CampaignSpec::from_value) {
        Ok(s) => s,
        Err(e) => return Response::error(400, &format!("bad spec: {e}")),
    };
    match inner.service.submit(spec, priority) {
        Ok(id) => Response::json(201, wire::id_to_value(id).to_json_string()),
        Err(e) => service_error_response(&e),
    }
}

fn handle_import(request: &Request, inner: &Inner) -> Response {
    if at_pending_cap(inner) {
        taopt_telemetry::global()
            .counter("server_throttled_total")
            .inc();
        return Response::error(429, "too many pending campaigns; retry later");
    }
    let ckpt = match ckpt_codec::decode(&request.body, "wire import") {
        Ok(c) => c,
        Err(e) => return service_error_response(&e),
    };
    match inner.service.import_checkpoint(ckpt) {
        Ok(id) => Response::json(201, wire::id_to_value(id).to_json_string()),
        Err(e) => service_error_response(&e),
    }
}

fn handle_status(raw_id: &str, inner: &Inner) -> Response {
    let id = match parse_id(raw_id) {
        Ok(id) => id,
        Err(r) => return r,
    };
    match inner.service.status(id) {
        Ok(status) => Response::json(200, wire::status_to_value(id, &status).to_json_string()),
        Err(e) => service_error_response(&e),
    }
}

fn handle_wait(request: &Request, raw_id: &str, inner: &Inner) -> Response {
    let id = match parse_id(raw_id) {
        Ok(id) => id,
        Err(r) => return r,
    };
    let timeout = request
        .query_param("timeout_ms")
        .and_then(|t| t.parse::<u64>().ok())
        .map_or(inner.config.max_wait, Duration::from_millis)
        .min(inner.config.max_wait);
    // Bounded by construction: wait_timeout can never outlive max_wait,
    // so a slow campaign cannot pin this worker (or the peer) forever.
    match inner.service.wait_timeout(id, timeout) {
        Ok(Some(status)) => {
            Response::json(200, wire::status_to_value(id, &status).to_json_string())
        }
        Ok(None) => match inner.service.status(id) {
            Ok(status) => Response::json(200, wire::status_to_value(id, &status).to_json_string()),
            Err(e) => service_error_response(&e),
        },
        Err(e) => service_error_response(&e),
    }
}

fn handle_result(raw_id: &str, inner: &Inner) -> Response {
    let id = match parse_id(raw_id) {
        Ok(id) => id,
        Err(r) => return r,
    };
    match inner.service.result(id) {
        // The stored report is already JSON text: it is the body.
        Ok(Some(report)) => Response::json(200, report),
        Ok(None) => match inner.service.status(id) {
            Ok(CampaignStatus::Failed(reason)) => {
                Response::error(409, &format!("campaign failed: {reason}"))
            }
            _ => Response::error(409, "campaign has not finished"),
        },
        Err(e) => service_error_response(&e),
    }
}

fn handle_export(raw_id: &str, inner: &Inner) -> Response {
    let id = match parse_id(raw_id) {
        Ok(id) => id,
        Err(r) => return r,
    };
    match inner.service.export_checkpoint(id) {
        Ok(ckpt) => Response {
            status: 200,
            content_type: "application/x-taopt-checkpoint",
            body: ckpt_codec::encode(&ckpt),
        },
        Err(e) => service_error_response(&e),
    }
}
