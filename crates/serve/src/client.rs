//! A small blocking client for the `simcov-serve v1` protocol.
//!
//! Used by `simcov submit`, the load-test harness and the CI gates. The
//! interesting part is [`Client::run_job`]: it rides out every failure
//! the chaos plan injects — a dropped connection is answered by
//! reconnecting and polling `query` (the server stores every result
//! before it attempts delivery), a `rejected` ack by sleeping out the
//! server's retry-after hint and resubmitting.

use crate::protocol::{read_frame, write_frame, FrameError};
use simcov_obs::json::Json;
use std::net::TcpStream;
use std::time::Duration;

/// A blocking protocol client over one TCP connection (reconnecting
/// where the protocol allows it).
pub struct Client {
    addr: String,
    stream: TcpStream,
}

/// A client-side failure: socket errors plus protocol violations.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server answered with something the protocol does not allow
    /// here.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Connects with `TCP_NODELAY` set, so a request frame leaves at once
/// instead of waiting in Nagle's buffer for the ACK of the previous one.
fn connect_nodelay(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

impl Client {
    /// Connects to a server at `addr` (`host:port`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Ok(Client {
            addr: addr.to_string(),
            stream: connect_nodelay(addr)?,
        })
    }

    /// Sends one raw request frame.
    pub fn send(&mut self, payload: &str) -> std::io::Result<()> {
        write_frame(&mut self.stream, payload)
    }

    /// Receives one frame.
    pub fn recv(&mut self) -> Result<Json, FrameError> {
        read_frame(&mut self.stream)
    }

    /// Sends one request and returns the next frame — for requests with
    /// exactly one response (`stats`, `query`, `shutdown`).
    pub fn request(&mut self, payload: &str) -> Result<Json, ClientError> {
        self.send(payload)?;
        self.recv()
            .map_err(|e| ClientError::Protocol(e.to_string()))
    }

    fn reconnect(&mut self) -> std::io::Result<()> {
        self.stream = connect_nodelay(&self.addr)?;
        Ok(())
    }

    /// Submits a job request and blocks until its `result` frame (or a
    /// terminal `error`/`quarantined` answer) arrives. Handles rejection
    /// backoff, out-of-order frames for other ids, dropped connections
    /// (reconnect + `query`) and `pending` polls.
    pub fn run_job(&mut self, payload: &str, id: &str) -> Result<Json, ClientError> {
        self.send(payload)?;
        loop {
            match self.recv() {
                Ok(frame) => {
                    let ftype = frame.get("type").and_then(Json::as_str).unwrap_or("");
                    let fid = frame.get("id").and_then(Json::as_str).unwrap_or("");
                    match ftype {
                        "result" if fid == id => return Ok(frame),
                        "error" => {
                            return Err(ClientError::Protocol(
                                frame
                                    .get("error")
                                    .and_then(Json::as_str)
                                    .unwrap_or("unspecified error")
                                    .to_string(),
                            ))
                        }
                        "ack" if fid == id => {
                            let status = frame.get("status").and_then(Json::as_str).unwrap_or("");
                            match status {
                                "admitted" => {}
                                "pending" => {
                                    // Poll again shortly; the job is in
                                    // flight on the server.
                                    std::thread::sleep(Duration::from_millis(5));
                                    self.send(&query(id))?;
                                }
                                "rejected" => {
                                    let retry = frame
                                        .get("retry_after_ms")
                                        .and_then(Json::as_u64)
                                        .unwrap_or(25)
                                        .min(250);
                                    std::thread::sleep(Duration::from_millis(retry));
                                    self.send(payload)?;
                                }
                                "quarantined" => {
                                    return Err(ClientError::Protocol(format!(
                                        "job `{id}` is quarantined"
                                    )))
                                }
                                other => {
                                    return Err(ClientError::Protocol(format!(
                                        "unexpected ack status `{other}`"
                                    )))
                                }
                            }
                        }
                        // Frames for other ids (pipelined siblings on a
                        // shared connection) are not ours to consume
                        // authoritatively — but by protocol each request
                        // has a dedicated client here, so skip.
                        _ => {}
                    }
                }
                Err(FrameError::Closed) | Err(FrameError::Truncated) | Err(FrameError::Io(_)) => {
                    // Chaos (or a real fault) dropped the connection.
                    // Every result is stored before delivery is
                    // attempted, so reconnect-and-query converges.
                    std::thread::sleep(Duration::from_millis(2));
                    self.reconnect()?;
                    self.send(&query(id))?;
                }
                Err(e) => return Err(ClientError::Protocol(e.to_string())),
            }
        }
    }
}

/// Builds a `query` request for `id`.
pub fn query(id: &str) -> String {
    format!(
        r#"{{"type":"query","id":"{}"}}"#,
        simcov_obs::json::escape(id)
    )
}

/// Builds a `stats` request.
pub fn stats() -> String {
    r#"{"type":"stats"}"#.to_string()
}

/// Builds a `shutdown` request.
pub fn shutdown() -> String {
    r#"{"type":"shutdown"}"#.to_string()
}
