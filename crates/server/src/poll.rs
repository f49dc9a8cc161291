//! Readiness primitives for the event loop: a wakeable parker, an
//! adaptive spin/park backoff, a blocking acceptor thread that can be
//! released without `poll(2)`, and a piped stream that turns a blocking
//! byte source (stdin) into one nonblocking connection.
//!
//! The fleet transport is zero-dependency by design: no `libc`, no `mio`,
//! no FFI. Readiness therefore cannot come from `epoll`; instead the
//! event loop *attempts* nonblocking I/O (`WouldBlock` = not ready) and
//! paces itself with [`Backoff`] — spin while traffic is hot, park on a
//! [`Parker`] with an escalating timeout when it is not. Everything that
//! can produce work without the loop noticing on its own (a finished
//! worker, a fresh connection, a chunk of piped input) holds a [`Parker`]
//! handle and wakes it, so the escalated timeout is a *bound* on
//! discovery latency for the one signal nobody can deliver: bytes
//! arriving on an already-open socket.
//!
//! The blocking calls live on dedicated threads instead. [`Acceptor`]
//! parks one inside `accept(2)` (zero CPU while idle) and is released on
//! shutdown by a loopback self-connect — the classic self-pipe trick,
//! with a TCP connection standing in for the pipe. [`Piped`] parks one
//! inside the byte source's `read(2)` and hands its bytes to the loop
//! through a bounded channel.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A wakeable one-shot parker: `wait` blocks until the timeout elapses or
/// someone calls `wake`. A wake that arrives while nobody is waiting is
/// latched, so the next `wait` returns immediately — no lost wakeups.
#[derive(Default)]
pub struct Parker {
    woken: Mutex<bool>,
    cv: Condvar,
}

impl Parker {
    /// A fresh parker with no pending wake.
    pub fn new() -> Parker {
        Parker::default()
    }

    /// Latches a wake and releases the current (or next) waiter.
    pub fn wake(&self) {
        let mut woken = self.woken.lock().expect("parker poisoned");
        *woken = true;
        self.cv.notify_one();
    }

    /// Parks until woken or until `timeout` elapses (`None` = forever).
    /// Consumes the wake latch. Returns whether a wake was received.
    pub fn wait(&self, timeout: Option<Duration>) -> bool {
        let mut woken = self.woken.lock().expect("parker poisoned");
        match timeout {
            Some(t) => {
                let deadline = std::time::Instant::now() + t;
                while !*woken {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, _) = self
                        .cv
                        .wait_timeout(woken, deadline - now)
                        .expect("parker poisoned");
                    woken = guard;
                }
            }
            None => {
                while !*woken {
                    woken = self.cv.wait(woken).expect("parker poisoned");
                }
            }
        }
        std::mem::replace(&mut *woken, false)
    }
}

/// Adaptive sweep pacing for the event loop: stay hot (no park) for a few
/// sweeps after the last progress, then park with a timeout that
/// escalates toward `cap`. Reset on every productive sweep.
#[derive(Debug)]
pub struct Backoff {
    idle_sweeps: u32,
}

/// Sweeps after the last progress during which the loop does not park at
/// all (bursty pipelines stay at syscall latency).
const HOT_SWEEPS: u32 = 16;

/// First park duration once the hot window is exhausted.
const PARK_FLOOR: Duration = Duration::from_micros(50);

impl Backoff {
    /// A backoff in the hot state.
    pub fn new() -> Backoff {
        Backoff { idle_sweeps: 0 }
    }

    /// Call after a sweep that made progress: back to the hot state.
    pub fn reset(&mut self) {
        self.idle_sweeps = 0;
    }

    /// Call after a sweep that found nothing to do. Returns how long to
    /// park before the next sweep: `None` while hot (spin again), then
    /// an exponentially escalating duration clamped to `cap`.
    pub fn next_park(&mut self, cap: Duration) -> Option<Duration> {
        self.idle_sweeps = self.idle_sweeps.saturating_add(1);
        if self.idle_sweeps <= HOT_SWEEPS {
            std::hint::spin_loop();
            return None;
        }
        let steps = (self.idle_sweeps - HOT_SWEEPS).min(20);
        let park = PARK_FLOOR.saturating_mul(1u32 << steps.min(16));
        Some(park.min(cap))
    }
}

/// The accept thread's hand-off queue plus its shutdown latch.
struct AcceptShared {
    /// Accepted streams, already nonblocking, in arrival order.
    queue: Mutex<VecDeque<TcpStream>>,
    /// Latched by [`Acceptor::shutdown`]; the accept thread drops the
    /// wake connection and exits when it sees this.
    stop: AtomicBool,
    /// Woken on every push (for the event loop).
    notify: Arc<Parker>,
}

/// A dedicated thread parked in blocking `accept(2)`: zero CPU while no
/// client is connecting, no accept-poll sleep, and shutdown releases it
/// with a loopback self-connect instead of a timeout.
pub struct Acceptor {
    shared: Arc<AcceptShared>,
    local: SocketAddr,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Acceptor {
    /// Spawns the accept thread over an already-bound listener. `notify`
    /// is woken every time a fresh connection lands in the queue; the
    /// thread makes each one nonblocking (a stream that refuses is
    /// dropped) and disables Nagle's algorithm on it first.
    pub fn spawn(listener: TcpListener, notify: Arc<Parker>) -> io::Result<Acceptor> {
        // Blocking accepts on purpose: the thread consumes nothing while
        // idle. (The listener may arrive nonblocking from an older
        // caller; normalize.)
        listener.set_nonblocking(false)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(AcceptShared {
            queue: Mutex::new(VecDeque::new()),
            stop: AtomicBool::new(false),
            notify,
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("stcfa-accept".to_owned())
            .spawn(move || accept_loop(listener, thread_shared))?;
        Ok(Acceptor {
            shared,
            local,
            handle: Mutex::new(Some(handle)),
        })
    }

    /// Drains every connection accepted since the last call (never
    /// blocks).
    pub fn drain(&self) -> Vec<TcpStream> {
        let mut queue = self.shared.queue.lock().expect("accept queue poisoned");
        queue.drain(..).collect()
    }

    /// Latches stop and releases the blocked `accept(2)` by connecting to
    /// the listener from loopback. Joins the accept thread. Idempotent.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // The self-connect gives accept() something to return; the thread
        // then observes `stop` and exits. If the connect fails (exotic
        // bind address, fd exhaustion) fall back to letting the thread
        // die with the process — the event loop is released by the wake
        // below.
        let _ = TcpStream::connect_timeout(&self.wake_addr(), Duration::from_millis(500));
        self.shared.notify.wake();
        let handle = self.handle.lock().expect("accept handle poisoned").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// Where the wake connection goes: the bound address, with
    /// unspecified IPs (0.0.0.0 / ::) rewritten to loopback.
    fn wake_addr(&self) -> SocketAddr {
        let ip = match self.local.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };
        SocketAddr::new(ip, self.local.port())
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<AcceptShared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    // The wake connection (or a client racing shutdown):
                    // refuse and exit.
                    drop(stream);
                    break;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                shared
                    .queue
                    .lock()
                    .expect("accept queue poisoned")
                    .push_back(stream);
                shared.notify.wake();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Transient accept failures (aborted handshake, fd
                // pressure): never take the daemon down, never spin.
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Bytes the piped reader thread moves per chunk.
const PIPE_CHUNK: usize = 16 * 1024;

/// Chunks that may wait in a piped stream's channel. With the reader's
/// own chunk and the one being framed, this bounds the piped input held
/// ahead of the framer: once the loop stops reading (backpressure), the
/// reader blocks and the pipe pushes back on the client.
const PIPE_DEPTH: usize = 4;

/// A blocking byte source and sink served as one event-loop connection
/// (the stdio transport). A detached reader thread moves the source's
/// bytes through a bounded channel and wakes the loop's [`Parker`] on
/// each chunk, so reads never block: they return `WouldBlock` while the
/// channel is empty and end of input once the reader has stopped. Writes
/// go to the sink one response line per call, so a sink that fails
/// part-way fails at a response boundary, and they block: a piped stream
/// is the only connection on its loop, so nothing else waits on it.
pub struct Piped<'e, W> {
    chunks: Receiver<Vec<u8>>,
    /// The chunk being read, and how much of it has been.
    chunk: Vec<u8>,
    at: usize,
    sink: W,
    /// The sink's first error, kept for the caller: the connection only
    /// learns that its write side broke.
    error: &'e mut Option<io::Error>,
}

impl<'e, W: Write> Piped<'e, W> {
    /// Spawns the reader thread over `source`. It is detached on purpose:
    /// a read blocked on an open stdin must not hold a drained shutdown
    /// hostage. It exits at end of input, on a read error (treated as
    /// end of input), or once the stream is dropped.
    pub fn spawn<R: Read + Send + 'static>(
        mut source: R,
        sink: W,
        notify: Arc<Parker>,
        error: &'e mut Option<io::Error>,
    ) -> Piped<'e, W> {
        let (tx, chunks) = mpsc::sync_channel(PIPE_DEPTH);
        std::thread::spawn(move || {
            loop {
                let mut chunk = vec![0; PIPE_CHUNK];
                match source.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => {
                        chunk.truncate(n);
                        if tx.send(chunk).is_err() {
                            break;
                        }
                        notify.wake();
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
            // The loop learns of end of input from the hung-up channel.
            drop(tx);
            notify.wake();
        });
        Piped {
            chunks,
            chunk: Vec::new(),
            at: 0,
            sink,
            error,
        }
    }

    /// Keeps the sink's first error for the caller and hands the
    /// connection one of the same kind.
    fn latch(&mut self, e: io::Error) -> io::Error {
        let kind = e.kind();
        self.error.get_or_insert(e);
        io::Error::from(kind)
    }
}

impl<W> Read for Piped<'_, W> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.at == self.chunk.len() {
            self.chunk = match self.chunks.try_recv() {
                Ok(chunk) => chunk,
                Err(TryRecvError::Empty) => return Err(io::ErrorKind::WouldBlock.into()),
                Err(TryRecvError::Disconnected) => return Ok(0),
            };
            self.at = 0;
        }
        let n = buf.len().min(self.chunk.len() - self.at);
        buf[..n].copy_from_slice(&self.chunk[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

impl<W: Write> Write for Piped<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let line = buf
            .iter()
            .position(|&b| b == b'\n')
            .map_or(buf, |nl| &buf[..=nl]);
        match self.sink.write_all(line) {
            Ok(()) => Ok(line.len()),
            Err(e) => Err(self.latch(e)),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.sink.flush().map_err(|e| self.latch(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn parker_latches_wakes_and_times_out() {
        let p = Parker::new();
        // A pre-delivered wake is not lost.
        p.wake();
        assert!(p.wait(Some(Duration::from_secs(5))));
        // The latch was consumed: now a timeout.
        let t = Instant::now();
        assert!(!p.wait(Some(Duration::from_millis(20))));
        assert!(t.elapsed() >= Duration::from_millis(15));
        // Cross-thread wake releases a parked waiter promptly.
        let p = Arc::new(Parker::new());
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            p2.wake();
        });
        let t = Instant::now();
        assert!(p.wait(Some(Duration::from_secs(10))));
        assert!(t.elapsed() < Duration::from_secs(5));
        h.join().unwrap();
    }

    #[test]
    fn backoff_spins_hot_then_escalates_to_cap() {
        let cap = Duration::from_millis(5);
        let mut b = Backoff::new();
        for _ in 0..HOT_SWEEPS {
            assert_eq!(b.next_park(cap), None, "hot window must spin");
        }
        let first = b.next_park(cap).expect("parks after the hot window");
        assert!(first >= PARK_FLOOR && first < cap);
        let mut last = first;
        for _ in 0..64 {
            last = b.next_park(cap).unwrap();
        }
        assert_eq!(last, cap, "escalation clamps at the cap");
        b.reset();
        assert_eq!(b.next_park(cap), None, "reset returns to hot");
    }

    #[test]
    fn acceptor_delivers_connections_and_shutdown_releases_accept() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let notify = Arc::new(Parker::new());
        let acceptor = Acceptor::spawn(listener, Arc::clone(&notify)).unwrap();

        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"hello").unwrap();
        assert!(notify.wait(Some(Duration::from_secs(10))), "no accept wake");
        let got = acceptor.drain();
        assert_eq!(got.len(), 1);
        assert!(acceptor.drain().is_empty(), "drain consumes");

        // Shutdown returns promptly even though accept(2) is blocking.
        let t = Instant::now();
        acceptor.shutdown();
        assert!(
            t.elapsed() < Duration::from_secs(5),
            "shutdown hung on the blocked accept"
        );
    }

    #[test]
    fn piped_stream_reads_without_blocking_and_latches_the_first_write_error() {
        let notify = Arc::new(Parker::new());
        let mut error = None;
        let mut sink = Vec::new();
        let (tx, rx) = mpsc::channel::<u8>();
        // A source that yields one line once released, then ends.
        struct Gated(mpsc::Receiver<u8>, bool);
        impl Read for Gated {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.1 {
                    return Ok(0);
                }
                self.0.recv().expect("the test releases the source");
                self.1 = true;
                buf[..3].copy_from_slice(b"ab\n");
                Ok(3)
            }
        }
        let mut piped = Piped::spawn(Gated(rx, false), &mut sink, Arc::clone(&notify), &mut error);
        let mut buf = [0; 8];
        assert_eq!(
            piped.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock,
            "nothing piped yet: reads must not block"
        );
        tx.send(0).unwrap();
        assert!(notify.wait(Some(Duration::from_secs(10))), "no chunk wake");
        assert_eq!(piped.read(&mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"ab\n");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match piped.read(&mut buf) {
                Ok(0) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert!(Instant::now() < deadline, "end of input never arrived");
                    notify.wait(Some(Duration::from_millis(10)));
                }
                other => panic!("unexpected read {other:?}"),
            }
        }
        // One response line per write call.
        assert_eq!(piped.write(b"r0\nr1\n").unwrap(), 3);
        drop(piped);
        assert_eq!(sink, b"r0\n");
        assert!(error.is_none());

        // A failing sink: the caller gets the first error itself back.
        struct Gone(u32);
        impl Write for Gone {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                let message = format!("client gone ({})", self.0);
                Err(io::Error::new(io::ErrorKind::BrokenPipe, message))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut piped = Piped::spawn(io::empty(), Gone(0), notify, &mut error);
        assert!(piped.write(b"r0\n").is_err());
        assert!(piped.write(b"r1\n").is_err());
        drop(piped);
        let e = error.expect("the first error is kept");
        assert_eq!(e.to_string(), "client gone (1)");
    }
}
