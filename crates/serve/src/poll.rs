//! Readiness polling for the event-loop server core.
//!
//! [`Poller`] is a thin, dependency-free wrapper over Linux's
//! readiness API, `epoll(7)`, declared directly against libc (which
//! `std` already links) so no external crate is needed. The surface is
//! the minimal subset the serving core uses: register a socket with a
//! `u64` token and an interest set, modify the interest, and wait for
//! batches of [`PollEvent`]s. Elsewhere `Poller::new` fails: the engine
//! itself reads Linux's thread CPU clock, so no other target runs a job.
//!
//! Registration is **level-triggered**: an event keeps firing while the
//! condition holds, so the event loop may consume as little or as much
//! of a socket's readiness as it likes per wake-up without risking a
//! lost edge.

use std::time::Duration;

use flowkv_common::error::{Result, StoreError};

/// One readiness notification.
#[derive(Clone, Copy, Debug)]
pub struct PollEvent {
    /// The token the file descriptor was registered with.
    pub token: u64,
    /// The peer can be read from (or has data / closed).
    pub readable: bool,
    /// The socket can accept more outgoing bytes.
    pub writable: bool,
    /// Error or hang-up; the connection should be torn down after a
    /// final read attempt drains whatever remains.
    pub error: bool,
}

fn io_err(what: &'static str) -> StoreError {
    StoreError::io(what, std::io::Error::last_os_error())
}

#[cfg(target_os = "linux")]
mod imp {
    use super::*;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Mirror of the kernel's `struct epoll_event`. On x86 the kernel
    /// declares it packed; other architectures use natural alignment.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// Readiness poller backed by `epoll(7)`.
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        /// Creates an empty poller.
        pub fn new() -> Result<Self> {
            // SAFETY: plain syscall, no pointers involved.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io_err("epoll_create1"));
            }
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, event: Option<EpollEvent>) -> Result<()> {
            let mut ev = event.unwrap_or(EpollEvent { events: 0, data: 0 });
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io_err("epoll_ctl"));
            }
            Ok(())
        }

        /// Starts watching `fd` under `token`.
        pub fn register(
            &self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, Some(interest(token, readable, writable)))
        }

        /// Replaces the interest set of an already-registered `fd`.
        pub fn modify(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, Some(interest(token, readable, writable)))
        }

        /// Stops watching `fd`. Closing the descriptor also deregisters
        /// it implicitly; this is for keeping a live socket unwatched.
        pub fn deregister(&self, fd: RawFd) -> Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        /// Blocks until at least one event is ready or `timeout`
        /// expires, appending events to `out`.
        pub fn wait(&self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> Result<()> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; 128];
            let timeout_ms: c_int = match timeout {
                Some(t) => t.as_millis().min(c_int::MAX as u128) as c_int,
                None => -1,
            };
            // SAFETY: `buf` is a valid out-array of the stated length.
            let n =
                unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms) };
            if n < 0 {
                let err = std::io::Error::last_os_error();
                if err.kind() == std::io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(StoreError::io("epoll_wait", err));
            }
            for ev in &buf[..n as usize] {
                // Copy out of the (possibly packed) struct before use.
                let events = ev.events;
                let data = ev.data;
                out.push(PollEvent {
                    token: data,
                    readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                    error: events & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: fd owned by this struct, closed exactly once.
            unsafe { close(self.epfd) };
        }
    }

    fn interest(token: u64, readable: bool, writable: bool) -> EpollEvent {
        let mut events = EPOLLRDHUP;
        if readable {
            events |= EPOLLIN;
        }
        if writable {
            events |= EPOLLOUT;
        }
        EpollEvent {
            events,
            data: token,
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::*;

    /// Unsupported-platform stub; construction fails, and with it
    /// `ServerBuilder::spawn`.
    pub struct Poller;

    impl Poller {
        /// Always fails on this platform.
        pub fn new() -> Result<Self> {
            Err(StoreError::invalid_state(
                "readiness polling is unsupported on this platform",
            ))
        }
    }
}

pub use imp::Poller;

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn readiness_fires_for_accept_and_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(listener.as_raw_fd(), 1, true, false)
            .unwrap();

        // Nothing pending: a short wait returns no events.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));

        let (mut conn, _) = listener.accept().unwrap();
        conn.set_nonblocking(true).unwrap();
        poller.register(conn.as_raw_fd(), 2, true, false).unwrap();
        client.write_all(b"ping").unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.readable));
        let mut buf = [0u8; 8];
        assert_eq!(conn.read(&mut buf).unwrap(), 4);

        // Write interest on an idle socket fires immediately.
        poller.modify(conn.as_raw_fd(), 2, true, true).unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.writable));
        poller.deregister(conn.as_raw_fd()).unwrap();
    }
}
