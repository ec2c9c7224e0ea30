//! `dagsfc-client`: a line-oriented client for the `dagsfc-serve`
//! protocol, used by the CLI subcommand, the trace replayer, and the
//! integration tests.

use crate::protocol::{
    fault_event_to_wire, StatsReport, WireRequest, WireResponse, PROTOCOL_VERSION,
};
use dagsfc_core::{DagSfc, Flow};
use dagsfc_net::{FaultEvent, LeaseId};
use dagsfc_sim::Algo;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket failure.
    Io(std::io::Error),
    /// The server's reply was not valid JSON.
    Json(serde_json::Error),
    /// The server closed the connection mid-request.
    Disconnected,
    /// The server answered `status: "error"`.
    Server(String),
    /// The `hello` handshake found incompatible protocol versions.
    /// `server` is `None` when the daemon predates versioning entirely
    /// (it rejected `hello` as an unknown command).
    ProtocolMismatch {
        /// The version this client speaks ([`PROTOCOL_VERSION`]).
        client: u32,
        /// The version the daemon reported, if it reported one.
        server: Option<u32>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Json(e) => write!(f, "bad server reply: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Server(reason) => write!(f, "server error: {reason}"),
            ClientError::ProtocolMismatch { client, server } => match server {
                Some(s) => write!(f, "protocol mismatch: client v{client}, server v{s}"),
                None => write!(f, "protocol mismatch: client v{client}, unversioned server"),
            },
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<serde_json::Error> for ClientError {
    fn from(e: serde_json::Error) -> Self {
        ClientError::Json(e)
    }
}

/// The fate of one embed request, as seen over the wire.
#[derive(Debug, Clone)]
pub enum EmbedReply {
    /// Committed: the lease handle and the embedding's cost.
    Accepted {
        /// Release this on departure.
        lease: LeaseId,
        /// Objective cost (vnf + link terms).
        cost: dagsfc_core::CostBreakdown,
    },
    /// Turned away (admission, backpressure, or solver), with cause.
    Rejected(String),
}

impl EmbedReply {
    /// The lease and total cost when accepted, `None` when rejected —
    /// the fate a lifecycle backend reports.
    pub fn fate(self) -> Option<(LeaseId, f64)> {
        match self {
            EmbedReply::Accepted { lease, cost } => Some((lease, cost.total())),
            EmbedReply::Rejected(_) => None,
        }
    }
}

/// A connected protocol client. One request/response at a time, in
/// order — exactly the lock-step discipline the trace replayer needs.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running daemon and performs the `hello` version
    /// handshake. A version mismatch — or a pre-versioning daemon that
    /// rejects `hello` outright — fails fast with
    /// [`ClientError::ProtocolMismatch`] before any request is sent.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let mut client = Self::connect_unversioned(addr)?;
        client.hello()?;
        Ok(client)
    }

    /// Connects without the version handshake — for protocol-level
    /// tests that need to speak raw lines (including malformed ones) to
    /// the daemon. Normal clients use [`Client::connect`].
    pub fn connect_unversioned(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends the `hello` handshake on an already-open connection.
    pub fn hello(&mut self) -> Result<(), ClientError> {
        let resp = self.request(&WireRequest {
            cmd: "hello".into(),
            proto: Some(PROTOCOL_VERSION),
            ..WireRequest::default()
        })?;
        match resp.status.as_str() {
            "ok" if resp.proto == Some(PROTOCOL_VERSION) => Ok(()),
            // An "error" carrying a version is a versioned daemon we
            // disagree with; one without (e.g. "unknown command
            // 'hello'") is a daemon from before versioning existed.
            _ => Err(ClientError::ProtocolMismatch {
                client: PROTOCOL_VERSION,
                server: resp.proto,
            }),
        }
    }

    /// Sends one raw request and reads its reply.
    pub fn request(&mut self, req: &WireRequest) -> Result<WireResponse, ClientError> {
        let mut line = serde_json::to_string(req)?;
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.read_reply()
    }

    /// Sends one raw request in `chunk`-byte slices with a flush after
    /// each — a deterministic "slow client" that exercises the server's
    /// partial-line read path — then reads the reply normally.
    pub fn request_chunked(
        &mut self,
        req: &WireRequest,
        chunk: usize,
    ) -> Result<WireResponse, ClientError> {
        let mut line = serde_json::to_string(req)?;
        line.push('\n');
        let bytes = line.as_bytes();
        for piece in bytes.chunks(chunk.max(1)) {
            self.writer.write_all(piece)?;
            self.writer.flush()?;
        }
        self.read_reply()
    }

    /// Sends the first `prefix` bytes of a request and then drops the
    /// connection without finishing the line — a misbehaving client the
    /// server must survive without leaking a worker or a lease.
    pub fn abandon_mid_request(
        mut self,
        req: &WireRequest,
        prefix: usize,
    ) -> Result<(), ClientError> {
        let line = serde_json::to_string(req)?;
        let bytes = line.as_bytes();
        let cut = prefix.min(bytes.len());
        self.writer.write_all(&bytes[..cut])?;
        self.writer.flush()?;
        Ok(())
        // `self` drops here, closing both halves of the socket.
    }

    fn read_reply(&mut self) -> Result<WireResponse, ClientError> {
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(ClientError::Disconnected);
        }
        Ok(serde_json::from_str(reply.trim())?)
    }

    /// Embeds an explicit chain; `algo`/`seed` default server-side when
    /// `None`.
    pub fn embed(
        &mut self,
        sfc: &DagSfc,
        flow: &Flow,
        algo: Option<Algo>,
        seed: u64,
    ) -> Result<EmbedReply, ClientError> {
        let resp = self.request(&embed_request(sfc, flow, algo, seed))?;
        Self::embed_reply(resp)
    }

    /// [`Client::embed`], written in `chunk`-byte slices with a flush
    /// after each (see [`Client::request_chunked`]).
    pub fn embed_chunked(
        &mut self,
        sfc: &DagSfc,
        flow: &Flow,
        algo: Option<Algo>,
        seed: u64,
        chunk: usize,
    ) -> Result<EmbedReply, ClientError> {
        let resp = self.request_chunked(&embed_request(sfc, flow, algo, seed), chunk)?;
        Self::embed_reply(resp)
    }

    /// Embeds a named `nfp` chain preset.
    pub fn embed_preset(
        &mut self,
        preset: &str,
        flow: &Flow,
        max_width: Option<usize>,
        algo: Option<Algo>,
        seed: u64,
    ) -> Result<EmbedReply, ClientError> {
        let resp = self.request(&WireRequest {
            cmd: "embed_preset".into(),
            preset: Some(preset.to_string()),
            flow: Some(*flow),
            seed: Some(seed),
            max_width,
            algo: algo.map(|a| a.wire_name().to_string()),
            ..WireRequest::default()
        })?;
        Self::embed_reply(resp)
    }

    fn embed_reply(resp: WireResponse) -> Result<EmbedReply, ClientError> {
        match resp.status.as_str() {
            "accepted" => {
                let lease = resp
                    .lease
                    .ok_or_else(|| ClientError::Server("accepted without lease".into()))?;
                let cost = resp
                    .cost
                    .ok_or_else(|| ClientError::Server("accepted without cost".into()))?;
                Ok(EmbedReply::Accepted {
                    lease: LeaseId(lease),
                    cost,
                })
            }
            "rejected" => Ok(EmbedReply::Rejected(
                resp.reason.unwrap_or_else(|| "unspecified".into()),
            )),
            _ => Err(ClientError::Server(resp.reason.unwrap_or(resp.status))),
        }
    }

    /// Releases a lease; `Err(ClientError::Server(..))` on unknown or
    /// double release.
    pub fn release(&mut self, lease: LeaseId) -> Result<(), ClientError> {
        let resp = self.request(&WireRequest {
            cmd: "release".into(),
            lease: Some(lease.0),
            ..WireRequest::default()
        })?;
        match resp.status.as_str() {
            "ok" => Ok(()),
            _ => Err(ClientError::Server(resp.reason.unwrap_or(resp.status))),
        }
    }

    /// Fetches the daemon's counter report.
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        let resp = self.request(&WireRequest {
            cmd: "stats".into(),
            ..WireRequest::default()
        })?;
        resp.stats
            .ok_or_else(|| ClientError::Server("stats reply without stats".into()))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.owner().map(|_| ())
    }

    /// Liveness probe that also returns this connection's owner id —
    /// the tag the server stamps on every lease committed through this
    /// connection (used by `reclaim`).
    pub fn owner(&mut self) -> Result<u64, ClientError> {
        let resp = self.request(&WireRequest {
            cmd: "ping".into(),
            ..WireRequest::default()
        })?;
        match resp.status.as_str() {
            "ok" => resp
                .owner
                .ok_or_else(|| ClientError::Server("ping reply without owner".into())),
            other => Err(ClientError::Server(other.to_string())),
        }
    }

    /// Injects a fault event into the serving substrate. Returns
    /// whether the event changed any state (idempotent re-sends return
    /// `false`).
    pub fn fault(&mut self, event: &FaultEvent) -> Result<bool, ClientError> {
        let resp = self.request(&fault_event_to_wire(event))?;
        match resp.status.as_str() {
            "ok" => Ok(resp.changed.unwrap_or(false)),
            "rejected" => Err(ClientError::Server(
                resp.reason.unwrap_or_else(|| "rejected".into()),
            )),
            _ => Err(ClientError::Server(resp.reason.unwrap_or(resp.status))),
        }
    }

    /// Releases every live lease committed under `owner` (`None` means
    /// this connection's own owner id). Returns the number reclaimed.
    pub fn reclaim(&mut self, owner: Option<u64>) -> Result<u64, ClientError> {
        let resp = self.request(&WireRequest {
            cmd: "reclaim".into(),
            owner,
            ..WireRequest::default()
        })?;
        match resp.status.as_str() {
            "ok" => Ok(resp.reclaimed.unwrap_or(0)),
            _ => Err(ClientError::Server(resp.reason.unwrap_or(resp.status))),
        }
    }

    /// Asks the daemon to shut down (it drains queued work first).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let resp = self.request(&WireRequest {
            cmd: "shutdown".into(),
            ..WireRequest::default()
        })?;
        match resp.status.as_str() {
            "bye" => Ok(()),
            other => Err(ClientError::Server(other.to_string())),
        }
    }
}

/// The wire form of an `embed` request.
fn embed_request(sfc: &DagSfc, flow: &Flow, algo: Option<Algo>, seed: u64) -> WireRequest {
    WireRequest {
        cmd: "embed".into(),
        sfc: Some(sfc.clone()),
        flow: Some(*flow),
        seed: Some(seed),
        algo: algo.map(|a| a.wire_name().to_string()),
        ..WireRequest::default()
    }
}
