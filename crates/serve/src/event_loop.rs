//! Non-blocking event-loop serving core.
//!
//! One thread owns every connection. Sockets are registered with a
//! [`Poller`] and handled on readiness: incoming bytes accumulate in a
//! per-connection read buffer, every complete frame in the buffer is
//! answered immediately (this is what makes pipelining pay — a client
//! with 32 requests in flight gets all 32 answered per wake-up), and
//! responses accumulate in a per-connection write buffer that drains as
//! the socket accepts bytes. No thread is ever parked on a single
//! connection, so thousands of idle clients cost one sleeping thread.
//!
//! What a frame means is not this module's business: each complete
//! frame goes to [`handle_frame`], which appends its answer.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::poll::{PollEvent, Poller};
use crate::protocol::peek_frame;
use crate::server::{handle_frame, ServeShared};

/// Poll tick: how often the loop re-checks the shutdown flag and idle
/// deadlines even when no socket is ready.
const TICK: Duration = Duration::from_millis(25);

/// The listening socket's poller token; connections start at 1.
const LISTENER_TOKEN: u64 = 0;

/// Bytes read per `read(2)` call while draining a readable socket.
const READ_CHUNK: usize = 64 * 1024;

/// Tunables handed from the [`ServerBuilder`](crate::server::ServerBuilder).
pub(crate) struct EventLoopConfig {
    /// Accepted connections beyond this are closed immediately.
    pub max_connections: usize,
    /// Connections with no complete frame for this long are closed;
    /// `None` keeps idle connections forever.
    pub idle_timeout: Option<Duration>,
}

struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    last_active: Instant,
    want_write: bool,
    eof: bool,
}

impl Conn {
    fn drained(&self) -> bool {
        self.write_pos >= self.write_buf.len()
    }
}

/// Runs the event loop until `stop` is raised. Consumes the poller and
/// the (already non-blocking) listener.
pub(crate) fn run(
    poller: Poller,
    listener: TcpListener,
    shared: Arc<ServeShared>,
    stop: Arc<AtomicBool>,
    cfg: EventLoopConfig,
) {
    if poller
        .register(listener.as_raw_fd(), LISTENER_TOKEN, true, false)
        .is_err()
    {
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = LISTENER_TOKEN + 1;
    let mut events: Vec<PollEvent> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        events.clear();
        if poller.wait(&mut events, Some(TICK)).is_err() {
            break;
        }
        for ev in &events {
            if ev.token == LISTENER_TOKEN {
                accept_ready(
                    &poller,
                    &listener,
                    &mut conns,
                    &mut next_token,
                    &shared,
                    &cfg,
                );
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else {
                // Closed earlier in this batch (e.g. error + readable
                // arrived together).
                continue;
            };
            let mut close = ev.error;
            if !close && ev.readable {
                close = on_readable(conn, &shared);
            }
            if !close && (ev.readable || ev.writable) {
                close = flush(conn, &shared);
            }
            if !close && conn.eof && conn.drained() {
                close = true;
            }
            if close {
                close_conn(&poller, &mut conns, ev.token, &shared);
            } else {
                update_interest(&poller, ev.token, conn);
            }
        }
        if let Some(idle) = cfg.idle_timeout {
            let now = Instant::now();
            let dead: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| now.duration_since(c.last_active) > idle)
                .map(|(t, _)| *t)
                .collect();
            for t in dead {
                close_conn(&poller, &mut conns, t, &shared);
            }
        }
    }
    // Responses already computed should reach clients: one final flush
    // attempt per connection before everything is dropped.
    for conn in conns.values_mut() {
        let _ = flush(conn, &shared);
    }
    if let Some(p) = &shared.probes {
        p.connections_open.set(0);
    }
}

fn accept_ready(
    poller: &Poller,
    listener: &TcpListener,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    shared: &ServeShared,
    cfg: &EventLoopConfig,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if conns.len() >= cfg.max_connections {
                    drop(stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                if poller
                    .register(stream.as_raw_fd(), token, true, false)
                    .is_err()
                {
                    continue;
                }
                conns.insert(
                    token,
                    Conn {
                        stream,
                        read_buf: Vec::new(),
                        write_buf: Vec::new(),
                        write_pos: 0,
                        last_active: Instant::now(),
                        want_write: false,
                        eof: false,
                    },
                );
                if let Some(p) = &shared.probes {
                    p.connections_total.inc();
                    p.connections_open.set(conns.len() as i64);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// Drains the socket into the read buffer and answers every complete
/// frame. Returns `true` when the connection must be closed.
fn on_readable(conn: &mut Conn, shared: &ServeShared) -> bool {
    let mut tmp = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut tmp) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                conn.read_buf.extend_from_slice(&tmp[..n]);
                if let Some(p) = &shared.probes {
                    p.bytes_read.add(n as u64);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    let mut consumed = 0usize;
    let mut frames = 0u64;
    loop {
        match peek_frame(&conn.read_buf[consumed..]) {
            Ok(Some((used, range))) => {
                let payload = consumed + range.start..consumed + range.end;
                if handle_frame(shared, &conn.read_buf[payload], &mut conn.write_buf).is_err() {
                    return true;
                }
                consumed += used;
                frames += 1;
            }
            Ok(None) => break,
            // A malformed length prefix poisons the whole stream: there
            // is no way to resynchronise on frame boundaries.
            Err(_) => return true,
        }
    }
    if consumed > 0 {
        conn.read_buf.drain(..consumed);
    }
    if frames > 0 {
        conn.last_active = Instant::now();
        if let Some(p) = &shared.probes {
            p.pipeline_depth.record(frames);
        }
    }
    false
}

/// Writes as much buffered output as the socket accepts. Returns `true`
/// when the connection must be closed.
fn flush(conn: &mut Conn, shared: &ServeShared) -> bool {
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return true,
            Ok(n) => {
                conn.write_pos += n;
                if let Some(p) = &shared.probes {
                    p.bytes_written.add(n as u64);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    if conn.write_pos > 0 && conn.drained() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
    false
}

fn update_interest(poller: &Poller, token: u64, conn: &mut Conn) {
    let want = !conn.drained();
    if want != conn.want_write
        && poller
            .modify(conn.stream.as_raw_fd(), token, true, want)
            .is_ok()
    {
        conn.want_write = want;
    }
}

fn close_conn(poller: &Poller, conns: &mut HashMap<u64, Conn>, token: u64, shared: &ServeShared) {
    if let Some(conn) = conns.remove(&token) {
        let _ = poller.deregister(conn.stream.as_raw_fd());
        if let Some(p) = &shared.probes {
            p.connections_open.set(conns.len() as i64);
        }
    }
}
