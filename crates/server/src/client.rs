//! Typed blocking client for the control-plane API.
//!
//! One connection per request (mirroring the server's `Connection:
//! close` policy), std `TcpStream` only. Every call either returns the
//! typed payload or a [`ClientError`] that distinguishes transport
//! failures from server-side rejections (which carry the HTTP status and
//! the server's error message).

use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use taopt_service::checkpoint as ckpt_codec;
use taopt_service::{CampaignId, CampaignSpec, CampaignStatus, Checkpoint, Priority};
use taopt_ui_model::json::Value;

use crate::http::IO_TIMEOUT;
use crate::wire;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level trouble (connect, read, write).
    Io(std::io::Error),
    /// The server answered with an error status.
    Server {
        /// HTTP status code.
        status: u16,
        /// The server's error message.
        message: String,
    },
    /// The response did not match the wire schema.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Server { status, message } => write!(f, "server ({status}): {message}"),
            ClientError::Protocol(why) => write!(f, "protocol: {why}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The HTTP status of a server-side rejection, if that is what this
    /// error is.
    pub fn status(&self) -> Option<u16> {
        match self {
            ClientError::Server { status, .. } => Some(*status),
            _ => None,
        }
    }
}

/// A blocking control-plane client bound to one shard address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
}

impl Client {
    /// A client for the shard at `addr`.
    pub fn new(addr: SocketAddr) -> Self {
        Client { addr }
    }

    /// The shard this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// One request/response exchange. Returns `(status, body)` for any
    /// complete HTTP response; transport failures are `Err`.
    fn exchange(
        &self,
        method: &str,
        path: &str,
        content_type: &str,
        body: &str,
    ) -> Result<(u16, String), ClientError> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            self.addr,
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;

        // Connection: close framing — read to EOF, then drain the head in
        // place so the body is handed back without a second copy.
        let mut raw = String::new();
        stream.read_to_string(&mut raw)?;
        let head_len = raw
            .find("\r\n\r\n")
            .ok_or_else(|| ClientError::Protocol("response missing header block".to_owned()))?;
        let status = raw[..head_len]
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| ClientError::Protocol("unreadable status line".to_owned()))?;
        raw.drain(..head_len + 4);
        Ok((status, raw))
    }

    /// Like [`Client::exchange`], but turns non-2xx statuses into
    /// [`ClientError::Server`] with the `error` field as the message.
    fn call(
        &self,
        method: &str,
        path: &str,
        content_type: &str,
        body: &str,
    ) -> Result<String, ClientError> {
        let (status, payload) = self.exchange(method, path, content_type, body)?;
        if (200..300).contains(&status) {
            return Ok(payload);
        }
        let message = Value::parse(&payload)
            .ok()
            .and_then(|v| v.get("error").and_then(|e| e.as_str().map(str::to_owned)))
            .unwrap_or(payload);
        Err(ClientError::Server { status, message })
    }

    fn parse(payload: &str) -> Result<Value, ClientError> {
        Value::parse(payload).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Submits a campaign spec at `priority`; returns the shard-assigned
    /// id.
    pub fn submit(
        &self,
        spec: &CampaignSpec,
        priority: Priority,
    ) -> Result<CampaignId, ClientError> {
        let body = Value::Object(vec![
            ("priority".to_owned(), Value::UInt(priority as u64)),
            ("spec".to_owned(), spec.to_value()),
        ])
        .to_json_string();
        let payload = self.call("POST", "/v1/campaigns", "application/json", &body)?;
        wire::id_from_value(&Self::parse(&payload)?)
            .map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Current status of a campaign.
    pub fn status(&self, id: CampaignId) -> Result<CampaignStatus, ClientError> {
        let payload = self.call("GET", &format!("/v1/campaigns/{}", id.0), "text/plain", "")?;
        let (_, status) = wire::status_from_value(&Self::parse(&payload)?)
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        Ok(status)
    }

    /// One bounded server-side wait: blocks up to `timeout` (capped by
    /// the server) and returns the status reached.
    pub fn wait_once(
        &self,
        id: CampaignId,
        timeout: Duration,
    ) -> Result<CampaignStatus, ClientError> {
        let payload = self.call(
            "GET",
            &format!(
                "/v1/campaigns/{}/wait?timeout_ms={}",
                id.0,
                timeout.as_millis()
            ),
            "text/plain",
            "",
        )?;
        let (_, status) = wire::status_from_value(&Self::parse(&payload)?)
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        Ok(status)
    }

    /// Blocks until the campaign is terminal or `deadline` elapses,
    /// looping bounded server-side waits (no busy polling). On deadline,
    /// returns the last observed status.
    pub fn wait(&self, id: CampaignId, deadline: Duration) -> Result<CampaignStatus, ClientError> {
        let t0 = Instant::now();
        loop {
            let left = deadline.saturating_sub(t0.elapsed());
            let status = self.wait_once(id, left.min(Duration::from_secs(5)))?;
            match status {
                CampaignStatus::Done | CampaignStatus::Failed(_) => return Ok(status),
                _ if t0.elapsed() >= deadline => return Ok(status),
                _ => {}
            }
        }
    }

    /// The finished campaign's coverage report: the response body,
    /// exactly as the shard stored it.
    pub fn result(&self, id: CampaignId) -> Result<String, ClientError> {
        self.call(
            "GET",
            &format!("/v1/campaigns/{}/result", id.0),
            "text/plain",
            "",
        )
    }

    /// Prometheus text exposition of the shard's metrics.
    pub fn metrics(&self) -> Result<String, ClientError> {
        self.call("GET", "/metrics", "text/plain", "")
    }

    /// Drains the shard: every campaign checkpoints, nothing new is
    /// accepted. Returns the checkpointed campaign ids.
    pub fn drain(&self) -> Result<Vec<CampaignId>, ClientError> {
        let payload = self.call("POST", "/v1/drain", "application/json", "")?;
        wire::drained_from_value(&Self::parse(&payload)?)
            .map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Exports a campaign's checkpoint in its durable text format,
    /// detaching the campaign from the shard (preempting it first if it
    /// is mid-flight).
    pub fn export_checkpoint_text(&self, id: CampaignId) -> Result<String, ClientError> {
        self.call(
            "GET",
            &format!("/v1/campaigns/{}/checkpoint", id.0),
            "text/plain",
            "",
        )
    }

    /// Typed variant of [`Client::export_checkpoint_text`]: parses and
    /// checksum-validates the exported checkpoint.
    pub fn export_checkpoint(&self, id: CampaignId) -> Result<Checkpoint, ClientError> {
        let text = self.export_checkpoint_text(id)?;
        ckpt_codec::decode(&text, &format!("export from {}", self.addr))
            .map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Imports checkpoint text exported from another shard; returns the
    /// importing shard's fresh id for the campaign.
    pub fn import_checkpoint_text(&self, text: &str) -> Result<CampaignId, ClientError> {
        let payload = self.call(
            "POST",
            "/v1/campaigns/import",
            "application/x-taopt-checkpoint",
            text,
        )?;
        wire::id_from_value(&Self::parse(&payload)?)
            .map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Typed variant of [`Client::import_checkpoint_text`].
    pub fn import_checkpoint(&self, ckpt: &Checkpoint) -> Result<CampaignId, ClientError> {
        self.import_checkpoint_text(&ckpt_codec::encode(ckpt))
    }
}

/// Migrates a campaign between shards: exports the durable checkpoint
/// from `from` (preempting a mid-flight campaign at its next round
/// boundary) and imports it into `to`, where it resumes by verified
/// deterministic replay. Returns the destination shard's id for the
/// campaign. The checkpoint bytes travel verbatim — the checksum written
/// by the source shard is what the destination validates.
pub fn migrate(from: &Client, to: &Client, id: CampaignId) -> Result<CampaignId, ClientError> {
    let text = from.export_checkpoint_text(id)?;
    to.import_checkpoint_text(&text)
}
