//! The long-running `er serve` candidate server and its typed client.
//!
//! A [`Server`] binds a TCP listener, publishes its starting snapshot as
//! generation 1 through a [`GenerationCell`], and serves each connection on
//! its own thread. Every connection handler pins the current generation,
//! builds a [`QueryEngine`] over it, and answers [`CandidateRequest`]s until
//! the cell's ordinal moves — at which point it drops its pin and rebuilds
//! over the new generation. Reloads therefore never stall the serving path:
//! the new snapshot is read and validated *before* the swap, in-flight
//! queries finish on the generation they started on, and the old snapshot's
//! memory is released when its last pin drops (see [`crate::GenerationCell`]).
//!
//! Reloads arrive two ways: a [`MSG_RELOAD`](crate::protocol::MSG_RELOAD)
//! control frame from any client, or — for process supervisors that can only
//! touch the filesystem — a *trigger file*
//! ([`ServerConfig::trigger_path`]) whose contents name the snapshot to
//! load; the accept loop polls it between connections, the file-based
//! stand-in for a SIGHUP handler.
//!
//! Shutdown is graceful: [`MSG_SHUTDOWN`](crate::protocol::MSG_SHUTDOWN) (or
//! [`ServerHandle::shutdown`]) raises the stop flag, the accept loop stops
//! taking connections and joins every handler thread, and handlers observe
//! the flag between frames — an in-flight request always completes and its
//! response is flushed before the connection closes.
//!
//! Telemetry: each request executes against its connection's
//! [`RunReport`], which is folded into a server-wide report
//! ([`ServerHandle::report`]) counting `requests_served` and the aggregate
//! `Query` / `SnapshotLoad` stage costs, and emptied for the next request;
//! [`ServerConfig::report_path`] rewrites the JSON report every
//! [`ServerConfig::report_every`] requests. The report's `requests` and
//! `generation` metadata are written when it is read or flushed, from the
//! counters the request path bumps.

use crate::delta::{merge_ops, DeltaOp};
use crate::engine::{batch_threads, host_threads, EngineScratch, QueryEngine};
use crate::error::{ServeError, SnapshotError};
use crate::generation::{AppliedDelta, GenerationCell};
use crate::protocol::{
    compact_bytes, delete_bytes, ok_bytes, parse_compact, parse_delete, parse_ok, parse_request,
    parse_response, parse_text, parse_upsert, parse_upsert_ok, read_frame, read_hello,
    request_bytes, response_bytes, text_bytes, upsert_bytes, upsert_ok_bytes, write_frame,
    write_hello, FrameReader, MSG_COMPACT, MSG_DELETE, MSG_ERROR, MSG_OK, MSG_RELOAD, MSG_REQUEST,
    MSG_RESPONSE, MSG_SHUTDOWN, MSG_UPSERT,
};
use crate::request::{CandidateRequest, CandidateResponse};
use crate::snapshot::{write_atomic, Snapshot};
use crate::view::SnapshotView;
use er_model::EntityProfile;
use mb_observe::RunReport;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How the idle accept loop paces its trigger-file and stop-flag polls.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; use port `0` for an ephemeral port (the bound
    /// address is reported by [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Per-connection read timeout. Doubles as the liveness poll: a blocked
    /// read wakes at this cadence to notice shutdown and generation swaps,
    /// and a peer that stalls forever cannot pin a handler thread past it.
    pub read_timeout: Duration,
    /// Optional reload trigger file — the filesystem stand-in for SIGHUP.
    /// Writing a snapshot path into this file makes the accept loop load,
    /// validate, and swap that snapshot in, then delete the file. A
    /// snapshot that fails to load is reported in the run report's
    /// `last_trigger_error` metadata and the old generation keeps serving.
    pub trigger_path: Option<PathBuf>,
    /// Optional path the aggregated [`RunReport`] is rewritten to
    /// periodically.
    pub report_path: Option<PathBuf>,
    /// Rewrite [`ServerConfig::report_path`] every this many requests
    /// (`0` disables periodic writes).
    pub report_every: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            read_timeout: Duration::from_millis(500),
            trigger_path: None,
            report_path: None,
            report_every: 100,
        }
    }
}

/// State shared by the accept loop, every connection handler, and the
/// [`ServerHandle`].
struct Shared {
    cell: GenerationCell,
    stop: AtomicBool,
    report: Mutex<RunReport>,
    requests: AtomicU64,
    config: ServerConfig,
}

impl Shared {
    /// Folds a connection's report of one request into the server-wide one,
    /// leaves it empty for the next, and flushes the JSON report if the
    /// request count crossed a reporting boundary.
    fn note_request(&self, local: &mut RunReport) {
        self.absorb(local);
        let served = self.requests.fetch_add(1, Ordering::SeqCst) + 1;
        if self.config.report_every > 0 && served % self.config.report_every == 0 {
            if let Some(path) = &self.config.report_path {
                // Best-effort: a full disk must not take down serving.
                let _ = self.report().write_to(path);
            }
        }
    }

    /// Folds `local` into the server-wide report and leaves it empty.
    fn absorb(&self, local: &mut RunReport) {
        self.report.lock().unwrap_or_else(PoisonError::into_inner).absorb(local);
        local.clear_stages();
    }

    /// A copy of the server-wide report with the request count and the
    /// serving generation written into its metadata. Both live in atomics
    /// the request path bumps; formatting them is left to whoever reads the
    /// report or writes it out.
    fn report(&self) -> RunReport {
        let mut report = self.report.lock().unwrap_or_else(PoisonError::into_inner).clone();
        report.set_meta("requests", self.requests.load(Ordering::SeqCst).to_string());
        report.set_meta("generation", self.cell.ordinal().to_string());
        report
    }

    /// Checks the trigger file and swaps in the snapshot it names, if any.
    fn poll_trigger(&self) {
        let Some(trigger) = &self.config.trigger_path else { return };
        let Ok(text) = std::fs::read_to_string(trigger) else { return };
        let path = text.trim();
        if path.is_empty() {
            return;
        }
        // Consume the trigger first so a broken snapshot is not retried in
        // a tight loop.
        let _ = std::fs::remove_file(trigger);
        let mut local = RunReport::new("serve/trigger-reload");
        let swapped = SnapshotView::read_from(Path::new(path), &mut local)
            .and_then(|snapshot| self.cell.swap(snapshot));
        match swapped {
            Ok(_) => self.absorb(&mut local),
            Err(e) => {
                let mut report = self.report.lock().unwrap_or_else(PoisonError::into_inner);
                report.set_meta("last_trigger_error", e.to_string());
            }
        }
    }
}

/// The online candidate server. See `server.rs`' module docs for the
/// serving model; [`Server::start`] is the only entry point.
pub struct Server;

impl Server {
    /// Binds `config.addr`, publishes `snapshot` as generation 1, and starts
    /// the accept loop on a background thread.
    ///
    /// Returns once the listener is bound; the handle exposes the bound
    /// address, in-process generation swaps, the aggregated telemetry, and
    /// graceful shutdown. Dropping the handle also shuts the server down.
    pub fn start<S>(snapshot: S, config: ServerConfig) -> Result<ServerHandle, ServeError>
    where
        S: TryInto<SnapshotView>,
        SnapshotError: From<S::Error>,
    {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let cell = GenerationCell::new(snapshot).map_err(|e| ServeError::Reload(Box::new(e)))?;
        let shared = Arc::new(Shared {
            cell,
            stop: AtomicBool::new(false),
            report: Mutex::new(RunReport::new("serve")),
            requests: AtomicU64::new(0),
            config,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(listener, &accept_shared));
        Ok(ServerHandle { shared, addr, accept: Some(accept) })
    }
}

/// Accepts connections until the stop flag rises, then drains: every
/// connection handler is joined before this returns, so in-flight requests
/// complete and flush.
fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_shared = Arc::clone(shared);
                workers.push(std::thread::spawn(move || {
                    // Handler errors are the peer's problem (it got a
                    // MSG_ERROR or vanished); the server keeps serving.
                    let _ = handle_connection(stream, &conn_shared);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                shared.poll_trigger();
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
        workers.retain(|w| !w.is_finished());
    }
    for worker in workers {
        let _ = worker.join();
    }
    if let Some(path) = &shared.config.report_path {
        let _ = shared.report().write_to(path);
    }
}

/// Serves one connection: hello, then frames until disconnect, shutdown, or
/// a protocol violation (which is answered with [`MSG_ERROR`] and closes the
/// connection — a hostile peer can only ever produce a typed error).
fn handle_connection(stream: TcpStream, shared: &Shared) -> Result<(), ServeError> {
    // Accepted sockets inherit the listener's non-blocking mode; handlers
    // want blocking reads bounded by the configured timeout. Frames are
    // small and the protocol is strictly request/response, so Nagle's
    // algorithm only adds delayed-ACK stalls — disable it.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(shared.config.read_timeout))?;
    stream.set_nodelay(true)?;
    let mut stream = stream;
    write_hello(&mut stream, shared.cell.ordinal())?;
    // A peer's thread count is a request, not an entitlement: every decoded
    // request is held to what this host can run at once.
    let thread_ceiling = host_threads();
    // What outlives a generation on this connection: the frame in progress,
    // the engine's buffers, and the report each request is measured into.
    let mut frames = FrameReader::default();
    let mut scratch = EngineScratch::default();
    let mut local = RunReport::new("serve/connection");
    loop {
        // Pin the current generation and build an engine over it. The pin
        // keeps this generation's snapshot alive across swaps; the inner
        // loop re-checks the cell's ordinal between frames and breaks to
        // rebuild — over the same buffers — when a swap happened.
        let generation = shared.cell.load();
        let mut engine = QueryEngine::with_scratch(&generation, scratch);
        loop {
            if shared.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            if shared.cell.ordinal() != generation.ordinal() {
                break;
            }
            let (kind, payload) = match frames.read(&mut stream) {
                Ok(frame) => frame,
                Err(ServeError::Io(e))
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                {
                    // Idle past the read timeout: loop to re-check the stop
                    // flag and the serving generation. A frame the timeout
                    // caught half-read stays in `frames`.
                    continue;
                }
                Err(ServeError::Disconnected) => return Ok(()),
                Err(e) => {
                    let _ = write_frame(&mut stream, MSG_ERROR, &text_bytes(&e.to_string()));
                    return Err(e);
                }
            };
            match kind {
                MSG_REQUEST => {
                    let outcome = parse_request(&payload).and_then(|request| {
                        let threads = batch_threads(request.threads(), thread_ceiling);
                        engine.execute(&request.with_threads(threads), &mut local)
                    });
                    match outcome {
                        Ok(mut response) => {
                            response.generation = generation.ordinal();
                            write_frame(&mut stream, MSG_RESPONSE, &response_bytes(&response))?;
                        }
                        Err(e) => {
                            write_frame(&mut stream, MSG_ERROR, &text_bytes(&e.to_string()))?;
                        }
                    }
                    shared.note_request(&mut local);
                }
                MSG_RELOAD => {
                    let swapped = parse_text(&payload).and_then(|path| {
                        SnapshotView::read_from(Path::new(&path), &mut local)
                            .and_then(|snapshot| shared.cell.swap(snapshot))
                            .map_err(|e| ServeError::Reload(Box::new(e)))
                    });
                    match swapped {
                        Ok(ordinal) => {
                            shared.absorb(&mut local);
                            write_frame(&mut stream, MSG_OK, &ok_bytes(ordinal))?;
                            break;
                        }
                        Err(e) => {
                            local.clear_stages();
                            write_frame(&mut stream, MSG_ERROR, &text_bytes(&e.to_string()))?;
                        }
                    }
                }
                MSG_UPSERT => {
                    let applied = parse_upsert(&payload).and_then(|(id, profile)| {
                        shared
                            .cell
                            .apply(DeltaOp::Upsert { id, profile }, &mut local)
                            .map_err(ServeError::Frame)
                    });
                    shared.note_request(&mut local);
                    match applied {
                        Ok(AppliedDelta { ordinal, id }) => {
                            write_frame(&mut stream, MSG_OK, &upsert_ok_bytes(ordinal, id))?;
                            break;
                        }
                        Err(e) => {
                            write_frame(&mut stream, MSG_ERROR, &text_bytes(&e.to_string()))?;
                        }
                    }
                }
                MSG_DELETE => {
                    let applied = parse_delete(&payload).and_then(|id| {
                        shared
                            .cell
                            .apply(DeltaOp::Delete { id }, &mut local)
                            .map_err(ServeError::Frame)
                    });
                    shared.note_request(&mut local);
                    match applied {
                        Ok(AppliedDelta { ordinal, .. }) => {
                            write_frame(&mut stream, MSG_OK, &ok_bytes(ordinal))?;
                            break;
                        }
                        Err(e) => {
                            write_frame(&mut stream, MSG_ERROR, &text_bytes(&e.to_string()))?;
                        }
                    }
                }
                MSG_COMPACT => {
                    let compacted = parse_compact(&payload)
                        .and_then(|(bundle, out)| compact(shared, &bundle, out.as_deref()));
                    shared.note_request(&mut local);
                    match compacted {
                        Ok(ordinal) => {
                            write_frame(&mut stream, MSG_OK, &ok_bytes(ordinal))?;
                            break;
                        }
                        Err(e) => {
                            write_frame(&mut stream, MSG_ERROR, &text_bytes(&e.to_string()))?;
                        }
                    }
                }
                MSG_SHUTDOWN => {
                    shared.stop.store(true, Ordering::SeqCst);
                    let _ = write_frame(&mut stream, MSG_OK, &ok_bytes(generation.ordinal()));
                    return Ok(());
                }
                other => {
                    let e = ServeError::UnknownMessage { kind: other };
                    let _ = write_frame(&mut stream, MSG_ERROR, &text_bytes(&e.to_string()));
                    return Err(e);
                }
            }
        }
        scratch = engine.into_scratch();
    }
}

/// Folds the serving generation's delta overlay back into a clean arena:
/// loads the profile bundle, replays the overlay's ops onto it, rebuilds a
/// snapshot under the same pipeline configuration, encodes it once (the
/// same bytes are optionally persisted and then loaded), and
/// compare-and-swaps the loaded view in. If any delta landed while the
/// rebuild ran, the swap fails and the delta-carrying generation keeps
/// serving — a compaction never silently drops a concurrent op.
fn compact(shared: &Shared, bundle: &str, out: Option<&str>) -> Result<u64, ServeError> {
    let generation = shared.cell.load();
    let ops: Vec<DeltaOp> = generation.overlay().map(|o| o.ops()).unwrap_or_default();
    let loaded = er_io::bundle::load(bundle)
        .map_err(|e| ServeError::InvalidRequest(format!("compaction bundle: {e}")))?;
    let mut collection = loaded.collection;
    merge_ops(&mut collection, &ops).map_err(|e| ServeError::Reload(Box::new(e)))?;
    let reload = |e: SnapshotError| ServeError::Reload(Box::new(e));
    let bytes =
        Snapshot::build(&collection, *generation.view().config()).map_err(reload)?.to_bytes();
    if let Some(path) = out {
        write_atomic(Path::new(path), &bytes).map_err(|e| reload(e.into()))?;
    }
    let view = SnapshotView::from_bytes(bytes).map_err(reload)?;
    shared.cell.swap_if(generation.ordinal(), view).map_err(reload)
}

/// A running server: the bound address, in-process control, and shutdown.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving generation's ordinal.
    pub fn generation(&self) -> u64 {
        self.shared.cell.ordinal()
    }

    /// Swaps `snapshot` in as the next generation without going over the
    /// wire; returns the new ordinal. Same semantics as a client reload: on
    /// error the old generation keeps serving.
    pub fn swap<S>(&self, snapshot: S) -> Result<u64, ServeError>
    where
        S: TryInto<SnapshotView>,
        SnapshotError: From<S::Error>,
    {
        self.shared.cell.swap(snapshot).map_err(|e| ServeError::Reload(Box::new(e)))
    }

    /// A copy of the aggregated telemetry so far, its `requests` and
    /// `generation` metadata current as of this call.
    pub fn report(&self) -> RunReport {
        self.shared.report()
    }

    /// Stops accepting, drains every in-flight connection, and returns the
    /// final telemetry report.
    pub fn shutdown(mut self) -> RunReport {
        self.stop_and_join();
        self.report()
    }

    /// Blocks until the server stops on its own — i.e. until some client
    /// sends [`MSG_SHUTDOWN`](crate::protocol::MSG_SHUTDOWN) — and returns
    /// the final telemetry report. The `er serve` verb parks on this.
    pub fn wait(mut self) -> RunReport {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.report()
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// A blocking client for the wire protocol — the same typed
/// [`CandidateRequest`] / [`CandidateResponse`] pair the in-process API
/// uses, serialized per [`crate::protocol`].
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    generation: u64,
}

impl Client {
    /// Connects, validates the server hello, and records the generation the
    /// server greeted with.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        let mut stream = TcpStream::connect(addr)?;
        // Request frames are small; Nagle would serialize every round trip
        // behind the peer's delayed ACK.
        stream.set_nodelay(true)?;
        let generation = read_hello(&mut stream)?;
        Ok(Client { stream, generation })
    }

    /// The generation the server announced at connect time (responses carry
    /// the generation that actually answered, which may be newer).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Executes `request` on the server and returns its typed response.
    ///
    /// Server-side failures (malformed request, entity out of range, …)
    /// come back as [`ServeError::Remote`].
    pub fn execute(&mut self, request: &CandidateRequest) -> Result<CandidateResponse, ServeError> {
        write_frame(&mut self.stream, MSG_REQUEST, &request_bytes(request))?;
        match read_frame(&mut self.stream)? {
            (MSG_RESPONSE, payload) => parse_response(&payload),
            (MSG_ERROR, payload) => Err(ServeError::Remote(parse_text(&payload)?)),
            (kind, _) => Err(ServeError::UnknownMessage { kind }),
        }
    }

    /// Asks the server to load the snapshot at `path` (a path on the
    /// *server's* filesystem) and swap it in; returns the new generation.
    pub fn reload(&mut self, path: &str) -> Result<u64, ServeError> {
        write_frame(&mut self.stream, MSG_RELOAD, &text_bytes(path))?;
        match read_frame(&mut self.stream)? {
            (MSG_OK, payload) => parse_ok(&payload),
            (MSG_ERROR, payload) => Err(ServeError::Remote(parse_text(&payload)?)),
            (kind, _) => Err(ServeError::UnknownMessage { kind }),
        }
    }

    /// Applies one upsert delta on the server's live generation; `id` may
    /// be [`crate::APPEND`] to let the server assign the next free id.
    /// Returns the new generation's ordinal and the resolved entity id.
    pub fn upsert(&mut self, id: u32, profile: &EntityProfile) -> Result<(u64, u32), ServeError> {
        write_frame(&mut self.stream, MSG_UPSERT, &upsert_bytes(id, profile))?;
        match read_frame(&mut self.stream)? {
            (MSG_OK, payload) => parse_upsert_ok(&payload),
            (MSG_ERROR, payload) => Err(ServeError::Remote(parse_text(&payload)?)),
            (kind, _) => Err(ServeError::UnknownMessage { kind }),
        }
    }

    /// Tombstones entity `id` on the server's live generation; returns the
    /// new generation's ordinal.
    pub fn delete(&mut self, id: u32) -> Result<u64, ServeError> {
        write_frame(&mut self.stream, MSG_DELETE, &delete_bytes(id))?;
        match read_frame(&mut self.stream)? {
            (MSG_OK, payload) => parse_ok(&payload),
            (MSG_ERROR, payload) => Err(ServeError::Remote(parse_text(&payload)?)),
            (kind, _) => Err(ServeError::UnknownMessage { kind }),
        }
    }

    /// Asks the server to fold its applied deltas back into a clean arena,
    /// rebuilding from the profile bundle at `bundle` (a directory on the
    /// *server's* filesystem) and optionally persisting the compacted
    /// snapshot to `out`; returns the new generation's ordinal.
    pub fn compact(&mut self, bundle: &str, out: Option<&str>) -> Result<u64, ServeError> {
        write_frame(&mut self.stream, MSG_COMPACT, &compact_bytes(bundle, out))?;
        match read_frame(&mut self.stream)? {
            (MSG_OK, payload) => parse_ok(&payload),
            (MSG_ERROR, payload) => Err(ServeError::Remote(parse_text(&payload)?)),
            (kind, _) => Err(ServeError::UnknownMessage { kind }),
        }
    }

    /// Asks the server to drain and stop; returns the final generation.
    pub fn shutdown(mut self) -> Result<u64, ServeError> {
        write_frame(&mut self.stream, MSG_SHUTDOWN, &[])?;
        match read_frame(&mut self.stream)? {
            (MSG_OK, payload) => parse_ok(&payload),
            (MSG_ERROR, payload) => Err(ServeError::Remote(parse_text(&payload)?)),
            (kind, _) => Err(ServeError::UnknownMessage { kind }),
        }
    }
}
