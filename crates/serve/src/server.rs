//! The TCP server: accept loop, connection workers, one scheduler thread.
//!
//! ```text
//!             TcpListener
//!                  │ accept
//!           ┌──────┴──────┐
//!           │ accept loop │──── shutdown: AtomicBool + self-connect wake
//!           └──────┬──────┘
//!                  │ execute(conn)
//!        ┌─────────┼─────────┐
//!   ┌────┴───┐ ┌───┴────┐ ┌──┴─────┐
//!   │worker 0│ │worker 1│ │worker N│   threadpool: frame I/O + JSON only
//!   └────┬───┘ └───┬────┘ └──┬─────┘
//!        └─────────┼─────────┘
//!                  │ mpsc<Command> (reply channel per request)
//!          ┌───────┴────────┐      ┌────────────────┐
//!          │scheduler thread│◄─────│ trainer threads │ ApplySwap
//!          │ WorkloadService│      │ (SwapModel)     │
//!          └────────────────┘      └────────────────┘
//! ```
//!
//! Only the scheduler thread touches the [`WorkloadService`]; connection
//! workers parse frames and wait on per-request reply channels, so the
//! virtual clock and every plan stays single-threaded and deterministic.
//! Each scheduler wakeup drains the queued backlog and coalesces the
//! offers between control commands into one per-class-grouped
//! `offer_tick` call (see [`crate::batch`]) — request batching kicks in
//! exactly when load outruns planning. Overload never drops a connection: admission
//! control's verdict travels back as a first-class [`Response::Shed`].
//!
//! No `expect()`/`unwrap()` sits on the request path: malformed frames,
//! undecodable payloads, unknown classes, and inconsistent plans each
//! fail their own request with a typed [`Response::Error`] while the
//! server keeps accepting.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use threadpool::ThreadPool;
use wisedb_advisor::{DecisionModel, ModelGenerator, TrainingArtifacts};
use wisedb_core::TenantId;
use wisedb_runtime::{OfferOutcome, WorkloadService};

use crate::batch::{coalesce, drain, Command, OfferEntry, Work};
use crate::error::ServeError;
use crate::frame::{read_frame, write_frame, FrameKind, FrameRead};
use crate::wire::{decode_request, encode_response, Request, Response};

/// Tuning for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind; port 0 picks a free port (read it back from
    /// [`ServerHandle::addr`]).
    pub bind: String,
    /// Connection worker threads: how many clients can be mid-request at
    /// once. The scheduler itself is always exactly one thread.
    pub workers: usize,
    /// Read-timeout tick on accepted connections: how often an idle
    /// worker re-checks the shutdown flag.
    pub poll_interval: Duration,
    /// Read by nothing: every wakeup coalesces its multi-class backlog
    /// into one scheduling tick planned on the scheduler thread itself.
    /// Accepted and ignored; kept only because `benchmark/` names it;
    /// ROADMAP 3(c) deletes it in a benchmark PR.
    pub shards: usize,
    /// Command-queue depth for offers (`0` = unbounded). When more than
    /// this many offers are already waiting on the scheduler, new ones
    /// are answered immediately with a typed [`Response::Shed`] frame
    /// instead of piling up — overload sheds load, it never grows the
    /// queue without bound. Control commands (metrics, telemetry, swap,
    /// shutdown) always bypass the gate.
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bind: "127.0.0.1:0".to_string(),
            workers: 4,
            poll_interval: Duration::from_millis(50),
            shards: 1,
            queue_depth: 1024,
        }
    }
}

/// The offer-queue depth gate: a shared counter of offers sitting on the
/// scheduler's command queue. Connection workers [`try_push`] before
/// enqueueing an offer and answer `Shed` on overflow; the scheduler
/// [`release`]s what each wakeup drained. Lock-free and advisory — a
/// racing pair of workers may land `depth + workers` entries at worst,
/// which is exactly the slack a bounded channel's senders would have.
///
/// [`try_push`]: QueueGate::try_push
/// [`release`]: QueueGate::release
pub(crate) struct QueueGate {
    depth: usize,
    queued: AtomicUsize,
}

impl QueueGate {
    pub(crate) fn new(depth: usize) -> Self {
        QueueGate {
            depth,
            queued: AtomicUsize::new(0),
        }
    }

    /// Claims one queue slot; `false` means the queue is full and the
    /// offer must be shed. A zero depth never sheds.
    pub(crate) fn try_push(&self) -> bool {
        if self.depth == 0 {
            return true;
        }
        self.queued
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.depth).then_some(n + 1)
            })
            .is_ok()
    }

    /// Returns `n` drained offers' slots to the gate.
    pub(crate) fn release(&self, n: usize) {
        if self.depth != 0 && n != 0 {
            self.queued.fetch_sub(n, Ordering::AcqRel);
        }
    }

    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        self.queued.load(Ordering::Acquire)
    }
}

/// The serve layer's entry point: spawns the threads around a trained
/// [`WorkloadService`].
pub struct Server;

impl Server {
    /// Binds, spawns the accept loop, worker pool, and scheduler thread,
    /// and returns a handle. The service must already be trained; no
    /// model work happens on the connection path.
    pub fn spawn(service: WorkloadService, config: ServeConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(QueueGate::new(config.queue_depth));
        let (cmd_tx, cmd_rx) = channel::<Command>();
        // Finished retrains ride a channel of their own: if they shared
        // the command queue, the scheduler would hold a sender to itself
        // and recv() could never disconnect at shutdown.
        let (swap_tx, swap_rx) = channel::<FinishedSwap>();

        let scheduler = {
            let gate = Arc::clone(&gate);
            thread::Builder::new()
                .name("wisedb-scheduler".to_string())
                .spawn(move || scheduler_loop(service, cmd_rx, swap_rx, swap_tx, gate))?
        };

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let cmd_tx = cmd_tx.clone();
            let config = config.clone();
            thread::Builder::new()
                .name("wisedb-accept".to_string())
                .spawn(move || accept_loop(listener, addr, cmd_tx, shutdown, config, gate))?
        };

        Ok(ServerHandle {
            addr,
            shutdown,
            cmd_tx: Some(cmd_tx),
            accept: Some(accept),
            scheduler: Some(scheduler),
        })
    }
}

/// A running server: its address and its off switch.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    cmd_tx: Option<Sender<Command>>,
    accept: Option<JoinHandle<()>>,
    scheduler: Option<JoinHandle<WorkloadService>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `bind` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Flips the shutdown flag and wakes the accept loop. Idempotent;
    /// also reachable over the wire via [`Request::Shutdown`].
    pub fn shutdown(&self) {
        request_shutdown(&self.shutdown, self.addr);
    }

    /// Shuts down and joins every thread, handing the (drained of
    /// threads, not of queries) service back for inspection — the e2e
    /// tests compare its snapshot against an in-process run.
    pub fn join(mut self) -> Option<WorkloadService> {
        self.wind_down()
    }

    fn wind_down(&mut self) -> Option<WorkloadService> {
        self.shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept loop's pool has joined its workers, so every cloned
        // sender is gone once ours drops — the scheduler's recv() then
        // disconnects and the thread returns the service.
        drop(self.cmd_tx.take());
        self.scheduler.take().and_then(|s| s.join().ok())
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.wind_down();
    }
}

/// Sets the flag, then self-connects so a blocked `accept()` observes it.
fn request_shutdown(shutdown: &AtomicBool, addr: SocketAddr) {
    shutdown.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
}

fn accept_loop(
    listener: TcpListener,
    addr: SocketAddr,
    cmd_tx: Sender<Command>,
    shutdown: Arc<AtomicBool>,
    config: ServeConfig,
    gate: Arc<QueueGate>,
) {
    let pool = ThreadPool::new(config.workers.max(1));
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shutdown.load(Ordering::SeqCst) {
                    break; // the wake connection, or a late client
                }
                let cmd_tx = cmd_tx.clone();
                let shutdown = Arc::clone(&shutdown);
                let poll = config.poll_interval;
                let gate = Arc::clone(&gate);
                pool.execute(move || handle_connection(stream, addr, cmd_tx, shutdown, poll, gate));
            }
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept failure (EMFILE, aborted handshake):
                // keep serving.
            }
        }
    }
    // Dropping the pool joins the workers; their cloned senders go with
    // them, letting the scheduler thread observe disconnect.
    drop(pool);
}

/// Process-wide connection id sequence: every accepted connection gets a
/// unique id that tags its observability spans and failure events, so a
/// trace or event log can be filtered to one client.
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

/// One connection's lifetime: read frames, dispatch, answer — until the
/// client hangs up, the stream turns untrustworthy, or shutdown.
///
/// **No failure on this path is silent**: framing violations, dropped
/// (truncated/dead) connections, and per-request errors each emit a
/// `wisedb-obs` event carrying this connection's id before the previous
/// behavior (answer-and-close, or just close) proceeds unchanged.
fn handle_connection(
    stream: TcpStream,
    addr: SocketAddr,
    cmd_tx: Sender<Command>,
    shutdown: Arc<AtomicBool>,
    poll: Duration,
    gate: Arc<QueueGate>,
) {
    let conn = NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed);
    wisedb_obs::counter_add("wisedb_serve_connections_total", 1);
    let _ = stream.set_nodelay(true);
    // The read timeout is the shutdown poll tick: an idle connection
    // re-checks the flag instead of pinning its worker forever.
    let _ = stream.set_read_timeout(Some(poll));
    let mut stream = stream;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            // The idle-timeout drop path: the poll tick observed the
            // shutdown flag between frames.
            wisedb_obs::instant("serve.connection_drop")
                .attr_u64("conn", conn)
                .attr_str("reason", "server shutdown while connection idle")
                .emit();
            return;
        }
        match read_frame(&mut stream) {
            Ok(FrameRead::Idle) => continue,
            Ok(FrameRead::Eof) => return,
            Ok(FrameRead::Frame(FrameKind::Request, payload)) => {
                let decoded = {
                    let mut span = wisedb_obs::span("serve.decode");
                    span.attr_u64("conn", conn);
                    span.attr_u64("bytes", payload.len() as u64);
                    decode_request(&payload)
                };
                match decoded {
                    Ok(Request::Shutdown) => {
                        // Acknowledge first so the client sees the answer,
                        // then wind the listener down.
                        let _ = respond(&mut stream, &Response::Ok, conn);
                        request_shutdown(&shutdown, addr);
                        return;
                    }
                    Ok(request) => {
                        let response = {
                            let mut span = wisedb_obs::span("serve.dispatch");
                            span.attr_u64("conn", conn);
                            dispatch(request, &cmd_tx, &gate)
                        };
                        // A per-request failure (unknown class, template
                        // outside the spec, inconsistent plan) answers as
                        // a typed error frame — and is logged with the
                        // connection that suffered it.
                        if let Response::Error { message } = &response {
                            wisedb_obs::counter_add("wisedb_serve_request_errors_total", 1);
                            wisedb_obs::instant("serve.request_error")
                                .attr_u64("conn", conn)
                                .attr_str("message", message.clone())
                                .emit();
                        }
                        if respond(&mut stream, &response, conn).is_err() {
                            return;
                        }
                    }
                    // Payload-level failure: this request fails, the
                    // connection (and its framing) is still sound.
                    Err(err) => {
                        let message = err.to_string();
                        wisedb_obs::counter_add("wisedb_serve_request_errors_total", 1);
                        wisedb_obs::instant("serve.request_error")
                            .attr_u64("conn", conn)
                            .attr_str("message", message.clone())
                            .emit();
                        let response = Response::Error { message };
                        if respond(&mut stream, &response, conn).is_err() {
                            return;
                        }
                    }
                }
            }
            // A client must not send Response frames.
            Ok(FrameRead::Frame(FrameKind::Response, _)) => {
                emit_framing_violation(conn, "client sent a response frame");
                let response = Response::Error {
                    message: "protocol violation: client sent a response frame".to_string(),
                };
                let _ = respond(&mut stream, &response, conn);
                return;
            }
            // Framing violation: answer once, then close — the byte
            // stream can no longer be trusted.
            Err(ServeError::Frame { detail }) => {
                emit_framing_violation(conn, &detail);
                let response = Response::Error {
                    message: format!("malformed frame: {detail}"),
                };
                let _ = respond(&mut stream, &response, conn);
                return;
            }
            // Truncated frame or dead socket: nothing to answer — but
            // the drop is on the record.
            Err(err) => {
                wisedb_obs::counter_add("wisedb_serve_connection_drops_total", 1);
                wisedb_obs::instant("serve.connection_drop")
                    .attr_u64("conn", conn)
                    .attr_str("reason", err.to_string())
                    .emit();
                return;
            }
        }
    }
}

fn emit_framing_violation(conn: u64, detail: &str) {
    wisedb_obs::counter_add("wisedb_serve_framing_violations_total", 1);
    wisedb_obs::instant("serve.framing_violation")
        .attr_u64("conn", conn)
        .attr_str("detail", detail)
        .emit();
}

fn respond(stream: &mut TcpStream, response: &Response, conn: u64) -> io::Result<()> {
    let mut span = wisedb_obs::span("serve.encode");
    span.attr_u64("conn", conn);
    let payload = encode_response(response).map_err(io::Error::other)?;
    write_frame(stream, FrameKind::Response, &payload)
}

/// Ships a request to the scheduler thread and waits for its answer.
/// Offers pass the queue-depth gate first: a full scheduler queue answers
/// [`Response::Shed`] right here, without touching the scheduler — the
/// overload signal a client sees is the same typed frame admission
/// control uses, so backpressure needs no new wire vocabulary.
fn dispatch(request: Request, cmd_tx: &Sender<Command>, gate: &QueueGate) -> Response {
    let (reply, reply_rx) = channel();
    let command = match request {
        Request::Offer {
            class,
            template,
            at,
        } => {
            if !gate.try_push() {
                wisedb_obs::counter_add("wisedb_serve_queue_shed_total", 1);
                wisedb_obs::instant("serve.queue_shed")
                    .attr_u64("class", class.index() as u64)
                    .emit();
                return Response::Shed;
            }
            Command::Offer {
                class,
                template,
                at,
                reply,
                queued: wisedb_obs::now_if_spans(),
            }
        }
        Request::Metrics => Command::Metrics { reply },
        Request::SwapModel { class, seed } => Command::Swap { class, seed, reply },
        Request::Telemetry => Command::Telemetry { reply },
        // Handled by the connection loop before dispatch.
        Request::Shutdown => return Response::Ok,
    };
    if cmd_tx.send(command).is_err() {
        return scheduler_gone();
    }
    match reply_rx.recv() {
        Ok(response) => response,
        Err(_) => scheduler_gone(),
    }
}

fn scheduler_gone() -> Response {
    Response::Error {
        message: "scheduler is shutting down".to_string(),
    }
}

/// A background retrain's result, waiting to be swapped in by the
/// scheduler thread between wakeups.
struct FinishedSwap {
    class: TenantId,
    model: Box<DecisionModel>,
    artifacts: Box<TrainingArtifacts>,
}

/// The single thread that owns the service. Each wakeup applies any
/// finished model swaps (so the next arrival plans on the new model),
/// then drains the backlog and [`execute`]s it. It exits (handing the
/// service back) when every command sender is gone — the swap channel is
/// only ever `try_recv`'d, so holding its sender here cannot wedge
/// shutdown.
///
/// Every drained offer's gate slot is released before the wakeup plans,
/// so admission verdicts — not queue slots — are what throttles a steady
/// overload.
fn scheduler_loop(
    mut service: WorkloadService,
    cmd_rx: Receiver<Command>,
    swap_rx: Receiver<FinishedSwap>,
    swap_tx: Sender<FinishedSwap>,
    gate: Arc<QueueGate>,
) -> WorkloadService {
    while let Ok(first) = cmd_rx.recv() {
        while let Ok(swap) = swap_rx.try_recv() {
            // A failed apply (model/goal mismatch) drops the retrained
            // model; the serving model stays.
            let _ = service.swap_model(swap.class, *swap.model, *swap.artifacts);
        }
        let mut tick = wisedb_obs::span("serve.tick");
        let backlog = drain(&cmd_rx, first);
        tick.attr_u64("drained", backlog.len() as u64);
        let offers_drained = backlog
            .iter()
            .filter(|c| matches!(c, Command::Offer { .. }))
            .count();
        gate.release(offers_drained);
        let groups = execute(&mut service, backlog, &swap_tx);
        tick.attr_u64("groups", groups as u64);
    }
    service
}

/// Executes one drained backlog in queue order: the offers between
/// control commands fold into one scheduling tick each (see
/// [`coalesce`]), and control commands run on their own between the
/// ticks. Returns how many work items the backlog coalesced into.
fn execute(
    service: &mut WorkloadService,
    backlog: Vec<Command>,
    swap_tx: &Sender<FinishedSwap>,
) -> usize {
    let work = coalesce(backlog);
    let items = work.len();
    for item in work {
        match item {
            Work::Tick(groups) => handle_tick(service, groups),
            Work::Other(command) => handle_command(service, command, swap_tx),
        }
    }
    items
}

/// Fails every offer of `offers` with the same typed reason.
fn fail<'a>(offers: impl IntoIterator<Item = &'a OfferEntry>, message: &str) {
    for offer in offers {
        let _ = offer.reply.send(Response::Error {
            message: message.to_string(),
        });
    }
}

/// One scheduling tick: a wakeup's multi-class backlog up to the next
/// control command. Each offer is pre-validated on its own (a bad request
/// must not fail its batch neighbors), then the valid rest is planned
/// with a single [`WorkloadService::offer_tick`] — which is the inline
/// `offer_batch_as` path when one class is left — and each outcome is
/// routed to its reply channel. A group whose plan fails has been rolled
/// back by the service: its offers share that typed error, and the other
/// groups' verdicts stand.
fn handle_tick(service: &mut WorkloadService, tick: Vec<(TenantId, Vec<OfferEntry>)>) {
    let num_templates = service.spec().num_templates();
    let mut valid: Vec<(TenantId, Vec<OfferEntry>)> = Vec::with_capacity(tick.len());
    for (class, mut offers) in tick {
        // How long each offer sat on the command queue before this wakeup
        // picked it up. Stamped at dispatch only while span tracing is on;
        // rendered as a Chrome `X` (complete) event so the retroactive
        // timestamps never violate B/E nesting.
        for offer in &offers {
            if let Some(queued) = offer.queued {
                wisedb_obs::observe_us(
                    "wisedb_serve_queue_wait_us",
                    queued.elapsed().as_micros() as u64,
                );
                wisedb_obs::complete("serve.queue_wait", queued)
                    .attr_u64("class", class.index() as u64)
                    .emit();
            }
        }
        let Some(sla) = service.classes().get(class.index()) else {
            let message = format!(
                "unknown tenant class {class:?} (service has {} classes)",
                service.classes().len()
            );
            fail(&offers, &message);
            continue;
        };
        offers.retain(|offer| {
            let template = offer.template;
            let problem = if template.index() >= num_templates {
                format!("{template} is outside the spec ({num_templates} templates)")
            } else if !sla.allows(template) {
                format!("{template} is not in class {class:?}'s subset")
            } else {
                return true;
            };
            fail([offer], &problem);
            false
        });
        if !offers.is_empty() {
            valid.push((class, offers));
        }
    }
    if valid.is_empty() {
        return;
    }

    let groups: Vec<_> = valid
        .iter()
        .map(|(class, entries)| (*class, entries.iter().map(|e| (e.template, e.at)).collect()))
        .collect();
    let planned = {
        let mut span = wisedb_obs::span("serve.plan");
        if span.recording() {
            span.attr_u64("groups", groups.len() as u64);
            span.attr_u64(
                "batch",
                valid.iter().map(|(_, e)| e.len() as u64).sum::<u64>(),
            );
        }
        service.offer_tick(&groups)
    };
    // `offer_tick`'s outer error never fires; were it to, every group of
    // the tick would fail with the same typed reason.
    let results = planned.unwrap_or_else(|err| vec![Err(err); valid.len()]);
    for ((_, entries), result) in valid.into_iter().zip(results) {
        match result {
            Ok(outcomes) => {
                for (offer, outcome) in entries.into_iter().zip(outcomes) {
                    let _ = offer.reply.send(match outcome {
                        OfferOutcome::Admitted => Response::Admitted,
                        OfferOutcome::Shed => Response::Shed,
                    });
                }
            }
            Err(err) => fail(&entries, &err.to_string()),
        }
    }
}

fn handle_command(service: &mut WorkloadService, command: Command, swap_tx: &Sender<FinishedSwap>) {
    match command {
        Command::Metrics { reply } => {
            let _ = reply.send(Response::Metrics(service.snapshot()));
        }
        Command::Telemetry { reply } => {
            // Refresh the live-service gauges right before rendering so
            // the exposition reflects this instant, not the last event.
            if wisedb_obs::enabled(wisedb_obs::Level::Counters) {
                let snapshot = service.snapshot();
                wisedb_obs::gauge_set("wisedb_virtual_now_ms", snapshot.at.as_millis() as f64);
                wisedb_obs::gauge_set("wisedb_fleet_vms", snapshot.vms_in_flight as f64);
                wisedb_obs::gauge_set("wisedb_in_flight_queries", snapshot.in_flight as f64);
            }
            let _ = reply.send(Response::Telemetry {
                text: wisedb_obs::telemetry_text(),
            });
        }
        Command::Swap { class, seed, reply } => {
            let _ = reply.send(schedule_retrain(service, class, seed, swap_tx));
        }
        // Offers are grouped before they get here.
        Command::Offer { reply, .. } => {
            let _ = reply.send(Response::Error {
                message: "internal: offer escaped coalescing".to_string(),
            });
        }
    }
}

/// Validates the class, then trains a replacement model on a background
/// thread; the trainer posts the result onto the swap channel, and the
/// scheduler thread applies it between wakeups. Training artifacts never
/// cross the wire — they are rebuilt here, server-side.
///
/// The trainer starts from the serving scheduler's warm state
/// ([`OnlineScheduler::warm_start`]): sample signatures already solved for
/// the serving model are replayed from the solve cache, so a retrain on an
/// unchanged template mix performs zero A* searches. A different `seed`
/// only changes which signatures are *drawn* — overlap with the cache is
/// still served for free.
fn schedule_retrain(
    service: &WorkloadService,
    class: TenantId,
    seed: u64,
    swap_tx: &Sender<FinishedSwap>,
) -> Response {
    let scheduler = match service.scheduler(class) {
        Ok(s) => s,
        Err(err) => {
            return Response::Error {
                message: err.to_string(),
            }
        }
    };
    let spec = scheduler.base_model().spec_handle().clone();
    let warm = scheduler.warm_start();
    let goal = service.classes()[class.index()].goal.clone();
    let training = service.config().online.training.clone().with_seed(seed);
    let swap_tx = swap_tx.clone();
    let spawned = thread::Builder::new()
        .name(format!("wisedb-trainer-{}", class.index()))
        .spawn(move || {
            if let Ok((model, artifacts)) =
                ModelGenerator::new(spec, goal, training).retrain_from(&warm)
            {
                let _ = swap_tx.send(FinishedSwap {
                    class,
                    model: Box::new(model),
                    artifacts: Box::new(artifacts),
                });
            }
        });
    match spawned {
        Ok(_) => Response::Ok,
        Err(err) => Response::Error {
            message: format!("could not start trainer thread: {err}"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisedb_advisor::ModelConfig;
    use wisedb_core::{
        GoalKind, Millis, PerformanceGoal, SlaClass, TemplateId, VmType, WorkloadSpec,
    };
    use wisedb_runtime::RuntimeConfig;

    /// A backlog interleaving three classes, a `Metrics` barrier in the
    /// middle: two multi-group ticks around one control command.
    fn scripted_backlog() -> (Vec<Command>, Vec<Receiver<Response>>) {
        let mut commands = Vec::new();
        let mut replies = Vec::new();
        for i in 0..14u32 {
            let (reply, rx) = channel();
            replies.push(rx);
            commands.push(if i == 7 {
                Command::Metrics { reply }
            } else {
                Command::Offer {
                    class: TenantId(i % 3),
                    template: TemplateId(i % 2),
                    at: Millis::from_secs(10 * u64::from(i)),
                    reply,
                    queued: None,
                }
            });
        }
        (commands, replies)
    }

    #[test]
    fn a_scripted_backlog_is_answered_as_two_ticks_around_a_barrier() {
        let spec = WorkloadSpec::single_vm(
            vec![("T1", Millis::from_mins(2)), ("T2", Millis::from_mins(1))],
            VmType::t2_medium(),
        )
        .unwrap();
        let classes: Vec<SlaClass> = [
            ("gold", GoalKind::PerQuery),
            ("silver", GoalKind::MaxLatency),
            ("bronze", GoalKind::AverageLatency),
        ]
        .into_iter()
        .map(|(name, kind)| {
            SlaClass::new(name, PerformanceGoal::paper_default(kind, &spec).unwrap())
        })
        .collect();
        let mut config = RuntimeConfig::default();
        config.online.training = ModelConfig {
            num_samples: 40,
            sample_size: 5,
            seed: 3,
            ..ModelConfig::fast()
        };
        let (swap_tx, _swap_rx) = channel();
        let mut service = WorkloadService::train_classes(spec, classes, config).unwrap();
        let (backlog, replies) = scripted_backlog();
        assert_eq!(execute(&mut service, backlog, &swap_tx), 3);
        let replies: Vec<Response> = replies
            .iter()
            .map(|rx| rx.try_recv().expect("every command is answered"))
            .collect();
        service.drain();

        assert_eq!(replies.len(), 14);
        // The barrier sees exactly the first tick's seven offers.
        assert!(matches!(replies[7], Response::Metrics(ref m) if m.admitted == 7));
        assert_eq!(service.snapshot().completed, 13);
        // Each side of the barrier is one multi-group tick of three classes.
        let stats = service.stats();
        assert_eq!((stats.ticks, stats.epochs, stats.decisions), (2, 2, 6));
    }

    #[test]
    fn queue_gate_sheds_exactly_past_its_depth_and_recovers_on_release() {
        let gate = QueueGate::new(3);
        assert!(gate.try_push());
        assert!(gate.try_push());
        assert!(gate.try_push());
        assert!(!gate.try_push(), "the fourth offer overflows depth 3");
        assert_eq!(gate.queued(), 3);
        gate.release(2);
        assert!(gate.try_push());
        assert!(gate.try_push());
        assert!(!gate.try_push());
        // Releasing everything drained restores the full budget.
        gate.release(3);
        assert_eq!(gate.queued(), 0);
    }

    #[test]
    fn zero_depth_gate_never_sheds() {
        let gate = QueueGate::new(0);
        for _ in 0..10_000 {
            assert!(gate.try_push());
        }
        gate.release(10_000);
        assert_eq!(gate.queued(), 0);
    }

    #[test]
    fn queue_gate_is_exact_under_contention() {
        let gate = Arc::new(QueueGate::new(64));
        let admitted: Vec<usize> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let gate = Arc::clone(&gate);
                    scope.spawn(move || (0..100).filter(|_| gate.try_push()).count())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        // Claims are atomic: exactly `depth` of the 400 racing pushes win.
        assert_eq!(admitted.iter().sum::<usize>(), 64);
        assert_eq!(gate.queued(), 64);
    }
}
