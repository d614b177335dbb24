//! The HTTP front end: one epoll readiness loop, a connection table it
//! exclusively owns, and a worker pool running the request handlers
//! off-loop. It is the server's only front end, so it serves on Linux
//! only; elsewhere [`crate::server::Server::start`] fails at boot.
//!
//! One loop watches every connection: the loop thread accepts, reads,
//! parses (`crate::http::parse_request`), and writes; complete requests
//! are dispatched to the worker pool so a slow handler (a refit admin
//! call, a big snapshot) never stalls readiness; finished responses
//! come back through a completion queue plus a socketpair waker.
//! Connection count is therefore decoupled from thread count — the
//! thread census is `1 (loop) + workers`, independent of how many
//! keep-alive peers are parked. See DESIGN.md §6 "Readiness-loop front
//! end".
//!
//! **Ordering.** HTTP/1.1 pipelining requires responses in request
//! order. The loop dispatches at most one in-flight request per
//! connection; further parsed requests queue in arrival order on the
//! connection and dispatch one by one as completions return. Responses
//! on one connection therefore serialize naturally — no sequence
//! numbers, no reordering buffer — while distinct connections still run
//! handlers in parallel.
//!
//! **Deadlines** (the slow-loris protections): a *request deadline*
//! bounds the time from a request's first byte to its last
//! (drip-feeding a header one byte at a time trips it); an *idle
//! deadline* reaps keep-alive connections with no request in progress;
//! a *write deadline* drops peers that stop reading their response. All
//! three derive from [`crate::server::ServeConfig::io_timeout`].

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{parse_request, render_response, Parsed, Request, Response};
use crate::obs::{Counter, Gauge};
use crate::sync::LockExt;

/// Whether this build target supports the event-loop front end.
pub const SUPPORTED: bool = cfg!(unix) && epoll::SUPPORTED;

/// Event-loop tuning handed down from [`crate::server::ServeConfig`].
pub(crate) struct EventLoopConfig {
    /// Worker threads executing request handlers (at least 1; checked
    /// by `Server::start`).
    pub workers: usize,
    /// The request/idle/write deadline base; `None` disables all three.
    pub io_timeout: Option<Duration>,
    /// Whether to move the connection gauges/counters.
    pub metrics: bool,
    /// `ltm_open_connections` (tracks the connection table size).
    pub open_connections: Arc<Gauge>,
    /// `ltm_keepalive_reuse_total` (second and later requests parsed on
    /// one connection).
    pub keepalive_reuse: Arc<Counter>,
    /// Observes a request that never parsed (the front end answers 400
    /// or 413 and closes, or reaps on deadline) so hostile traffic
    /// still counts.
    pub observe_malformed: Arc<dyn Fn(u16) + Send + Sync>,
}

/// What the loop hands a worker: the connection token to route the
/// response back, the parsed request, and its `Connection` semantics.
pub(crate) struct Job {
    token: u64,
    request: Request,
    close_after: bool,
}

/// A rendered response travelling back from a worker to the loop.
type Completion = (u64, Vec<u8>, bool);

/// Handles one parsed request, returning the response to render.
pub(crate) type RequestHandler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Cap on parsed-but-undispatched requests per connection: a pipelining
/// peer can run at most this far ahead of its responses before the loop
/// stops reading its socket (backpressure via TCP).
const MAX_PIPELINE: usize = 64;

/// Per-wakeup read budget, so one fat pipe cannot starve its neighbours
/// (level-triggered epoll re-arms anything left unread).
const READ_BUDGET: usize = 16 * 4096;

/// The sweep cadence when deadlines are armed: epoll_wait never sleeps
/// past this, so reaping lags a deadline by at most one tick.
const SWEEP_MS: i32 = 100;

/// One connection's state, owned exclusively by the loop thread.
struct Conn {
    stream: TcpStream,
    /// Raw fd for epoll bookkeeping.
    fd: i32,
    /// Unparsed request bytes.
    inbuf: Vec<u8>,
    /// Rendered response bytes not yet fully written (from `outpos`).
    outbuf: Vec<u8>,
    outpos: usize,
    /// Parsed requests waiting their turn (pipelining).
    pending: VecDeque<(Request, bool)>,
    /// Whether a request from this connection is at a worker.
    in_flight: bool,
    /// Stop reading; close once `outbuf` drains.
    close_after_write: bool,
    /// The peer's read side is done (EOF): serve what's owed, then close.
    peer_closed: bool,
    /// Armed while `inbuf` holds a partial request: the moment the
    /// current request must be complete by.
    request_deadline: Option<Instant>,
    /// Last moment this connection went completely quiet (idle reaping).
    idle_since: Instant,
    /// First moment the current unwritten response bytes stalled
    /// (write reaping); cleared on progress.
    write_since: Option<Instant>,
    /// Requests parsed on this connection (keep-alive reuse counting).
    requests_parsed: u64,
    /// The epoll interest currently registered, to skip no-op rearms.
    interest: u32,
}

impl Conn {
    /// The epoll interest this connection's state wants right now.
    fn wanted_interest(&self) -> u32 {
        let mut events = epoll::events::EPOLLRDHUP;
        if !self.close_after_write && !self.peer_closed && self.pending.len() < MAX_PIPELINE {
            events |= epoll::events::EPOLLIN;
        }
        if self.outpos < self.outbuf.len() {
            events |= epoll::events::EPOLLOUT;
        }
        events
    }

    /// Whether the connection is completely quiet (idle-reap candidate).
    fn is_idle(&self) -> bool {
        self.inbuf.is_empty()
            && self.pending.is_empty()
            && !self.in_flight
            && self.outpos >= self.outbuf.len()
    }
}

/// The handler workers: a fixed pool of threads draining the loop's job
/// queue. The loop thread holds the queue's only sender, so the queue
/// closes, and every worker exits, once the loop thread is gone.
struct WorkerPool {
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `size` workers named `ltm-handler-{i}`, each running `work`
    /// on every job it receives; returns them with the queue's sender.
    fn start(size: usize, work: Arc<dyn Fn(Job) + Send + Sync>) -> (Self, mpsc::Sender<Job>) {
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let work = Arc::clone(&work);
                std::thread::Builder::new()
                    .name(format!("ltm-handler-{i}"))
                    .spawn(move || loop {
                        let next = receiver.locked().recv();
                        let Ok(job) = next else {
                            return; // the loop dropped the sender: shutdown
                        };
                        // A panicking handler must not shrink the pool:
                        // contain it, drop the job, keep serving.
                        let result =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(job)));
                        if result.is_err() {
                            crate::log_error!("http", "request handler panicked; worker continues");
                        }
                    })
                    // analyzer: allow(panic-expect) -- boot-time spawn; fails only on OS thread exhaustion, before the server serves
                    .expect("spawn http worker")
            })
            .collect();
        (Self { workers }, sender)
    }

    /// Joins every worker (call once the queue's sender is dropped).
    fn join(self) {
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// A running event-loop front end.
pub(crate) struct EventLoop {
    join: JoinHandle<()>,
    pool: WorkerPool,
    waker: Arc<std::os::unix::net::UnixStream>,
    stop: Arc<AtomicBool>,
}

impl EventLoop {
    /// Registers `listener` with a fresh epoll instance and spawns the
    /// loop thread plus `cfg.workers` handler workers.
    pub(crate) fn start(
        listener: TcpListener,
        handler: RequestHandler,
        cfg: EventLoopConfig,
    ) -> io::Result<EventLoop> {
        use std::os::fd::AsRawFd;
        listener.set_nonblocking(true)?;
        let (waker_rx, waker_tx) = std::os::unix::net::UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;
        let waker_tx = Arc::new(waker_tx);
        let stop = Arc::new(AtomicBool::new(false));

        let epfd = epoll::create(true)?;
        let register = |fd: i32, token: u64| {
            epoll::ctl(
                epfd,
                epoll::ControlOptions::EpollCtlAdd,
                fd,
                epoll::Event::new(epoll::events::EPOLLIN, token),
            )
        };
        if let Err(e) = register(listener.as_raw_fd(), LISTENER_TOKEN)
            .and_then(|()| register(waker_rx.as_raw_fd(), WAKER_TOKEN))
        {
            let _ = epoll::close(epfd);
            return Err(e);
        }

        // Completed responses flow loop-ward through this queue; the
        // waker socketpair kicks the loop out of epoll_wait to drain it.
        let completions: Arc<Mutex<VecDeque<Completion>>> = Arc::new(Mutex::new(VecDeque::new()));
        let worker_completions = Arc::clone(&completions);
        let worker_waker = Arc::clone(&waker_tx);
        let worker: Arc<dyn Fn(Job) + Send + Sync> = Arc::new(move |job: Job| {
            let response = handler(&job.request);
            let keep_alive = !job.close_after;
            let bytes = render_response(
                response.status,
                response.content_type,
                &response.body,
                keep_alive,
            );
            worker_completions
                .locked()
                .push_back((job.token, bytes, job.close_after));
            // A full pipe means the loop is already awake (wakeups
            // coalesce), so WouldBlock is success here.
            let _ = (&*worker_waker).write(&[1u8]);
        });
        let (pool, jobs) = WorkerPool::start(cfg.workers, worker);

        let loop_stop = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("ltm-event-loop".into())
            .spawn(move || {
                let mut state = LoopState {
                    epfd,
                    listener,
                    waker_rx,
                    conns: HashMap::new(),
                    next_token: FIRST_CONN_TOKEN,
                    completions,
                    jobs,
                    cfg,
                };
                state.run(&loop_stop);
                // The connection table drops here (closing every
                // socket); registrations die with the epoll fd.
                let _ = epoll::close(epfd);
            })
            // analyzer: allow(panic-expect) -- boot-time spawn; fails only on OS thread exhaustion, before the server serves
            .expect("spawn event loop thread");

        Ok(EventLoop {
            join,
            pool,
            waker: waker_tx,
            stop,
        })
    }

    /// Stops the loop and joins it and every worker.
    pub(crate) fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = (&*self.waker).write(&[1u8]);
        // The loop thread's exit drops the job queue's sender, so each
        // worker finishes its job in hand and returns.
        let _ = self.join.join();
        self.pool.join();
    }
}

/// Everything the loop thread owns.
struct LoopState {
    epfd: i32,
    listener: TcpListener,
    waker_rx: std::os::unix::net::UnixStream,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    completions: Arc<Mutex<VecDeque<Completion>>>,
    jobs: mpsc::Sender<Job>,
    cfg: EventLoopConfig,
}

impl LoopState {
    fn run(&mut self, stop: &AtomicBool) {
        let mut events = [epoll::Event::new(0, 0); 128];
        while !stop.load(Ordering::SeqCst) {
            let timeout = self.wait_timeout_ms();
            let n = match epoll::wait(self.epfd, timeout, &mut events) {
                Ok(n) => n,
                Err(e) => {
                    crate::log_error!("http", "epoll_wait failed: {e}; front end stops");
                    break;
                }
            };
            for ev in events.iter().take(n) {
                match ev.data() {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.drain_waker(),
                    token => self.conn_ready(token, ev.events()),
                }
            }
            self.drain_completions();
            self.reap_deadlines();
        }
    }

    /// How long epoll_wait may sleep: forever when no deadline can
    /// expire, else until the next sweep tick.
    fn wait_timeout_ms(&self) -> i32 {
        if self.cfg.io_timeout.is_some() && !self.conns.is_empty() {
            SWEEP_MS
        } else {
            -1
        }
    }

    // -- accept / close / interest ------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if let Err(e) = self.add_conn(stream) {
                        crate::log_warn!("http", "cannot register connection: {e}");
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Transient accept errors (EMFILE, ECONNABORTED):
                    // log and retry on the next readiness wakeup.
                    crate::log_warn!("http", "accept failed: {e}");
                    break;
                }
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream) -> io::Result<()> {
        use std::os::fd::AsRawFd;
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        let token = self.next_token;
        self.next_token += 1;
        let interest = epoll::events::EPOLLIN | epoll::events::EPOLLRDHUP;
        epoll::ctl(
            self.epfd,
            epoll::ControlOptions::EpollCtlAdd,
            fd,
            epoll::Event::new(interest, token),
        )?;
        self.conns.insert(
            token,
            Conn {
                stream,
                fd,
                inbuf: Vec::new(),
                outbuf: Vec::new(),
                outpos: 0,
                pending: VecDeque::new(),
                in_flight: false,
                close_after_write: false,
                peer_closed: false,
                request_deadline: None,
                idle_since: Instant::now(),
                write_since: None,
                requests_parsed: 0,
                interest,
            },
        );
        if self.cfg.metrics {
            self.cfg.open_connections.inc();
        }
        Ok(())
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = epoll::ctl(
                self.epfd,
                epoll::ControlOptions::EpollCtlDel,
                conn.fd,
                epoll::Event::new(0, 0),
            );
            if self.cfg.metrics {
                self.cfg.open_connections.dec();
            }
            // conn.stream drops here, closing the socket.
        }
    }

    /// Re-registers a connection's epoll interest if its wanted set
    /// changed since the last registration.
    fn rearm(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let wanted = conn.wanted_interest();
        if wanted == conn.interest {
            return;
        }
        conn.interest = wanted;
        let _ = epoll::ctl(
            self.epfd,
            epoll::ControlOptions::EpollCtlMod,
            conn.fd,
            epoll::Event::new(wanted, token),
        );
    }

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 256];
        loop {
            match (&self.waker_rx).read(&mut sink) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: fully drained
            }
        }
    }

    // -- per-connection readiness -------------------------------------

    fn conn_ready(&mut self, token: u64, events: u32) {
        if events & (epoll::events::EPOLLERR | epoll::events::EPOLLHUP) != 0 {
            self.close_conn(token);
            return;
        }
        if events & epoll::events::EPOLLOUT != 0 && !self.write_ready(token) {
            return; // connection closed
        }
        if events & (epoll::events::EPOLLIN | epoll::events::EPOLLRDHUP) != 0 {
            self.read_ready(token);
        } else {
            self.rearm(token);
        }
    }

    /// Reads whatever the socket has (within the fairness budget), then
    /// parses, dispatches, flushes, and rearms.
    fn read_ready(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut chunk = [0u8; 4096];
        let mut total = 0usize;
        let mut peer_closed = conn.peer_closed;
        while !peer_closed && total < READ_BUDGET && conn.pending.len() < MAX_PIPELINE {
            match conn.stream.read(&mut chunk) {
                Ok(0) => peer_closed = true,
                Ok(n) => {
                    total += n;
                    // analyzer: allow(panic-index) -- read() returns n <= chunk.len()
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => peer_closed = true,
            }
        }
        conn.peer_closed = peer_closed;
        self.parse_and_dispatch(token);
        self.flush_then_maybe_close(token);
    }

    /// Parses as many complete requests out of the in-buffer as the
    /// pipeline cap allows, then dispatches the next queued request if
    /// none is in flight. Called after reads and after completions (a
    /// drained pipeline may leave parseable bytes behind with no further
    /// readiness event to trigger parsing).
    fn parse_and_dispatch(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.close_after_write {
            conn.inbuf.clear();
        }
        let now = Instant::now();
        let mut parse_failure: Option<u16> = None;
        while !conn.close_after_write && conn.pending.len() < MAX_PIPELINE {
            match parse_request(&conn.inbuf) {
                Ok(Parsed::Complete {
                    request,
                    consumed,
                    close_after,
                }) => {
                    conn.inbuf.drain(..consumed);
                    conn.requests_parsed += 1;
                    if conn.requests_parsed > 1 && self.cfg.metrics {
                        self.cfg.keepalive_reuse.inc();
                    }
                    conn.request_deadline = None;
                    conn.pending.push_back((request, close_after));
                    if close_after {
                        conn.inbuf.clear();
                        break;
                    }
                }
                Ok(Parsed::Partial) => {
                    if conn.inbuf.is_empty() || conn.peer_closed {
                        // Nothing buffered, or a trailing fragment that
                        // can never complete (the peer is done sending).
                        conn.inbuf.clear();
                        conn.request_deadline = None;
                    } else if conn.request_deadline.is_none() {
                        // The current request's clock starts at its
                        // first byte.
                        conn.request_deadline = self.cfg.io_timeout.map(|t| now + t);
                    }
                    break;
                }
                Err(e) => {
                    // Answer the rejection and close; everything the
                    // peer queued behind it is void.
                    let status = e.status();
                    let body = format!("{{\"error\":\"{}\"}}", e.message());
                    conn.outbuf.extend_from_slice(&render_response(
                        status,
                        "application/json",
                        &body,
                        false,
                    ));
                    conn.close_after_write = true;
                    conn.inbuf.clear();
                    conn.pending.clear();
                    conn.request_deadline = None;
                    parse_failure = Some(status);
                    break;
                }
            }
        }
        let next = if conn.in_flight {
            None
        } else {
            conn.pending.pop_front()
        };
        if let Some((request, close_after)) = next {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.in_flight = true;
            }
            self.dispatch(token, request, close_after);
        }
        if let Some(status) = parse_failure {
            (self.cfg.observe_malformed)(status);
        }
    }

    /// Writes as much of the out-buffer as the socket accepts. Returns
    /// `false` if the connection was closed.
    fn write_ready(&mut self, token: u64) -> bool {
        let now = Instant::now();
        let mut should_close = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            loop {
                if conn.outpos >= conn.outbuf.len() {
                    conn.outbuf.clear();
                    conn.outpos = 0;
                    conn.write_since = None;
                    if conn.is_idle() {
                        conn.idle_since = now;
                        // Everything owed is delivered: close if either
                        // side asked for it.
                        if conn.close_after_write || (conn.peer_closed && conn.inbuf.is_empty()) {
                            should_close = true;
                        }
                    }
                    break;
                }
                // analyzer: allow(panic-index) -- outpos < outbuf.len() was checked above
                match conn.stream.write(&conn.outbuf[conn.outpos..]) {
                    Ok(0) => {
                        should_close = true;
                        break;
                    }
                    Ok(n) => {
                        conn.outpos += n;
                        conn.write_since = Some(now);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        // Stalled: the write deadline starts at the first
                        // unwritten byte and resets on progress.
                        if conn.write_since.is_none() {
                            conn.write_since = Some(now);
                        }
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        should_close = true;
                        break;
                    }
                }
            }
        }
        if should_close {
            self.close_conn(token);
            return false;
        }
        true
    }

    /// An optimistic write after state changes (small responses go out
    /// without waiting a readiness round), then an interest rearm.
    fn flush_then_maybe_close(&mut self, token: u64) {
        if self.write_ready(token) {
            self.rearm(token);
        }
    }

    fn dispatch(&self, token: u64, request: Request, close_after: bool) {
        // A send error means the workers are gone (shutdown); the
        // connection is torn down with the loop moments later.
        let _ = self.jobs.send(Job {
            token,
            request,
            close_after,
        });
    }

    /// Moves completed responses from the workers into their
    /// connections' write buffers, then lets each connection parse /
    /// dispatch its next pipelined request.
    fn drain_completions(&mut self) {
        loop {
            let completion = self.completions.locked().pop_front();
            let Some((token, bytes, close_after)) = completion else {
                break;
            };
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // connection reaped while the worker ran
            };
            conn.in_flight = false;
            conn.outbuf.extend_from_slice(&bytes);
            if close_after {
                conn.close_after_write = true;
                conn.pending.clear();
                conn.inbuf.clear();
            }
            self.parse_and_dispatch(token);
            self.flush_then_maybe_close(token);
        }
    }

    /// Enforces the three deadlines. Runs every sweep tick.
    fn reap_deadlines(&mut self) {
        let Some(io_timeout) = self.cfg.io_timeout else {
            return;
        };
        let now = Instant::now();
        let mut doomed: Vec<(u64, bool)> = Vec::new();
        for (&token, conn) in &self.conns {
            // Request deadline: a partial request outstayed its budget
            // (slow-loris drip-feed).
            if conn.request_deadline.is_some_and(|d| now >= d) {
                doomed.push((token, true));
                continue;
            }
            // Write deadline: the peer stopped reading its response.
            if conn.outpos < conn.outbuf.len()
                && conn
                    .write_since
                    .is_some_and(|since| now.saturating_duration_since(since) >= io_timeout)
            {
                doomed.push((token, false));
                continue;
            }
            // Idle deadline: a keep-alive connection with nothing going
            // on. Same budget as the request deadline.
            if conn.is_idle() && now.saturating_duration_since(conn.idle_since) >= io_timeout {
                doomed.push((token, false));
            }
        }
        for (token, timed_out_mid_request) in doomed {
            if timed_out_mid_request {
                (self.cfg.observe_malformed)(408);
            }
            self.close_conn(token);
        }
    }
}
