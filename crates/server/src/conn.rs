//! Per-connection state for the event loop, on either transport:
//! incremental line framing over a nonblocking stream, a buffered ordered
//! writer, and the per-connection sequence gate that keeps transcripts
//! byte-identical at any shard/worker count.
//!
//! A [`Conn`] owns one client stream and never blocks on it: reads and
//! writes stop at `WouldBlock` and resume on the next event-loop sweep.
//! Every framed request line gets the next sequence number; responses
//! are appended to the write buffer strictly in that order regardless of
//! which shard worker finished first. Order-sensitive lines (the
//! stateful `session/*` ops and `evict`, see [`Route::ordered`]) are *held*
//! inside the connection until every earlier request has been answered,
//! and only then dispatched, so shard workers never block on each other
//! (a blocking gate can deadlock a pool where every worker waits on a
//! task queued behind it).
//!
//! Backpressure is the absence of a read: once the connection has
//! [`ConnLimits::conn_inflight`] unanswered requests, or its write
//! buffer exceeds [`ConnLimits::wbuf_soft_cap`] because the client reads
//! slowly, [`Conn::wants_read`] goes false and the event loop simply
//! stops pulling bytes. The kernel's TCP window, or the full pipe behind
//! a piped stream, does the rest.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::time::Instant;

use stcfa_devkit::bytes::find_byte;

use crate::route::Route;

/// Read chunk size per `read(2)` attempt.
const READ_CHUNK: usize = 16 * 1024;

/// Per-sweep read budget, so one fire-hosing connection cannot starve
/// the rest of the loop.
const READ_BUDGET: usize = 256 * 1024;

/// A request line with more bytes than this before its newline ends the
/// connection's input, however reads split it: the connection stops
/// reading, drops its read buffer, answers every request framed before
/// that line and is then reaped. The daemon's buffers are bounded by
/// construction.
pub const MAX_LINE: usize = 32 * 1024 * 1024;

/// Admission limits applied by the event loop through [`Conn`].
#[derive(Clone, Copy, Debug)]
pub struct ConnLimits {
    /// Maximum framed-but-unanswered requests per connection before the
    /// loop stops reading from it.
    pub conn_inflight: usize,
    /// Write-buffer size past which the loop stops reading (slow-reader
    /// backpressure): the client must drain responses to submit more.
    pub wbuf_soft_cap: usize,
}

impl Default for ConnLimits {
    fn default() -> ConnLimits {
        ConnLimits {
            conn_inflight: 64,
            wbuf_soft_cap: 1 << 20,
        }
    }
}

/// One framed request line, ready for admission control and dispatch.
#[derive(Debug)]
pub struct Frame {
    /// Per-connection sequence number (0-based over non-blank lines).
    pub seq: u64,
    /// The trimmed request line.
    pub line: String,
    /// When the line was framed (anchors the request deadline).
    pub received: Instant,
    /// How the line dispatches, computed once when it is framed.
    pub route: Route,
}

/// What one read sweep produced.
#[derive(Debug, Default)]
pub struct Pumped {
    /// Lines that may dispatch immediately (order-insensitive, or
    /// order-sensitive with nothing in front of them).
    pub dispatch: Vec<Frame>,
    /// Whether any bytes moved (resets the loop's backoff).
    pub progressed: bool,
}

/// Per-connection state: stream, framing buffers, and the ordered
/// response path. Generic over the stream so unit tests can inject
/// `WouldBlock`, partial reads/writes, and hard errors.
pub struct Conn<S> {
    stream: S,
    /// Stable identity for the event loop's tables and for completions.
    pub id: u64,
    rbuf: Vec<u8>,
    /// Frame scan resume offset: bytes before this contain no newline.
    scan: usize,
    wbuf: Vec<u8>,
    /// Next sequence number to assign to a framed line.
    next_seq: u64,
    /// Next sequence number to append to the write buffer: every seq
    /// below this has been answered and emitted, in order.
    emit_next: u64,
    /// Finished responses waiting for their turn in the write buffer.
    ready: BTreeMap<u64, String>,
    /// Order-sensitive lines waiting for `emit_next` to reach them.
    held: BTreeMap<u64, Frame>,
    /// Client sent EOF, a read failed, or a line went over [`MAX_LINE`]:
    /// no more frames will arrive.
    read_closed: bool,
    /// The write side failed: the connection is beyond use and should
    /// be reaped without further I/O.
    dead: bool,
}

impl<S: Read + Write> Conn<S> {
    /// Wraps an already-nonblocking stream.
    pub fn new(stream: S, id: u64) -> Conn<S> {
        Conn {
            stream,
            id,
            rbuf: Vec::new(),
            scan: 0,
            wbuf: Vec::new(),
            next_seq: 0,
            emit_next: 0,
            ready: BTreeMap::new(),
            held: BTreeMap::new(),
            read_closed: false,
            dead: false,
        }
    }

    /// Framed-but-unanswered request count (dispatched, held, or ready
    /// but not yet emitted).
    pub fn inflight(&self) -> usize {
        (self.next_seq - self.emit_next) as usize
    }

    /// Unflushed response bytes.
    pub fn wbuf_len(&self) -> usize {
        self.wbuf.len()
    }

    /// Whether the event loop should pull bytes from this connection:
    /// false once the client is gone, the connection broke, or either
    /// backpressure limit is hit.
    pub fn wants_read(&self, limits: &ConnLimits) -> bool {
        !self.read_closed
            && !self.dead
            && self.inflight() < limits.conn_inflight.max(1)
            && self.wbuf.len() < limits.wbuf_soft_cap.max(1)
    }

    /// Reads until `WouldBlock`, EOF, or the per-sweep budget, framing
    /// complete lines. Order-insensitive frames come back for immediate
    /// dispatch; order-sensitive ones are held internally until their
    /// turn (see [`Conn::complete`]). Respects the limits *between*
    /// chunks so a single sweep cannot blow far past `conn_inflight`.
    pub fn pump_read(&mut self, limits: &ConnLimits) -> Pumped {
        let mut out = Pumped::default();
        let mut budget = READ_BUDGET;
        while budget > 0 && self.wants_read(limits) {
            let old_len = self.rbuf.len();
            self.rbuf.resize(old_len + READ_CHUNK.min(budget), 0);
            match self.stream.read(&mut self.rbuf[old_len..]) {
                Ok(0) => {
                    self.rbuf.truncate(old_len);
                    self.read_closed = true;
                    out.progressed = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.truncate(old_len + n);
                    budget = budget.saturating_sub(n);
                    out.progressed = true;
                    self.extract_frames(&mut out);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.rbuf.truncate(old_len);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    self.rbuf.truncate(old_len);
                }
                Err(_) => {
                    self.rbuf.truncate(old_len);
                    // Hard read error: treat as EOF — answer what was
                    // framed, then reap.
                    self.read_closed = true;
                    out.progressed = true;
                    break;
                }
            }
        }
        out
    }

    /// Splits complete lines out of the read buffer and routes each
    /// ([`Route::of`]). Blank lines are keep-alives and consume no
    /// sequence number; lines are trimmed. Invalid UTF-8 is passed
    /// through lossily — the JSON parser turns it into a structured
    /// `proto` error, which is still a well-formed transcript entry. A
    /// line over [`MAX_LINE`], framed or still partial, ends the input.
    fn extract_frames(&mut self, out: &mut Pumped) {
        let mut start = 0;
        while let Some(nl) = find_byte(&self.rbuf[self.scan..], b'\n').map(|i| i + self.scan) {
            if nl - start > MAX_LINE {
                return self.refuse_input();
            }
            let raw = &self.rbuf[start..nl];
            let line = match std::str::from_utf8(raw) {
                Ok(line) => Cow::Borrowed(line),
                Err(_) => String::from_utf8_lossy(raw),
            };
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                let frame = Frame {
                    seq: self.next_seq,
                    line: trimmed.to_owned(),
                    received: Instant::now(),
                    route: Route::of(trimmed),
                };
                self.next_seq += 1;
                if frame.route.ordered && frame.seq != self.emit_next {
                    self.held.insert(frame.seq, frame);
                } else {
                    out.dispatch.push(frame);
                }
            }
            start = nl + 1;
            self.scan = start;
        }
        self.rbuf.drain(..start);
        self.scan = self.rbuf.len();
        if self.rbuf.len() > MAX_LINE {
            self.refuse_input();
        }
    }

    /// A line over [`MAX_LINE`]: stop reading and free the read buffer.
    /// Requests framed before the line are still answered and flushed;
    /// the connection is then reaped like one whose client hung up.
    fn refuse_input(&mut self) {
        self.read_closed = true;
        self.rbuf = Vec::new();
        self.scan = 0;
    }

    /// Records the response for `seq` and advances the ordered emit
    /// point, appending every now-unblocked response to the write
    /// buffer. Returns the next *held* order-sensitive frame if this
    /// completion made it dispatchable.
    pub fn complete(&mut self, seq: u64, response: String) -> Option<Frame> {
        debug_assert!(seq >= self.emit_next && seq < self.next_seq);
        self.ready.insert(seq, response);
        while let Some(response) = self.ready.remove(&self.emit_next) {
            if !self.dead {
                self.wbuf.extend_from_slice(response.as_bytes());
                self.wbuf.push(b'\n');
            }
            self.emit_next += 1;
        }
        match self.held.first_key_value() {
            Some((&s, _)) if s == self.emit_next => self.held.remove(&s),
            _ => None,
        }
    }

    /// Flushes as much of the write buffer as the stream accepts.
    /// Returns whether any bytes moved. A hard write or flush error
    /// (client vanished) marks the connection dead; remaining responses
    /// are discarded rather than blocking the daemon.
    pub fn pump_write(&mut self) -> bool {
        if self.dead || self.wbuf.is_empty() {
            return false;
        }
        let mut written = 0;
        while written < self.wbuf.len() {
            match self.stream.write(&self.wbuf[written..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if written > 0 && !self.dead && self.stream.flush().is_err() {
            self.dead = true;
        }
        if self.dead {
            self.wbuf.clear();
            return written > 0;
        }
        if written > 0 {
            self.wbuf.drain(..written);
            return true;
        }
        false
    }

    /// Every framed request answered (its response emitted to the write
    /// buffer), flushed or not.
    pub fn emit_done(&self) -> bool {
        self.emit_next == self.next_seq
    }

    /// Every framed request answered and every response byte flushed.
    pub fn drained(&self) -> bool {
        self.emit_done() && self.wbuf.is_empty()
    }

    /// Requests still executing or queued on a shard (not held here):
    /// the event loop must wait for these completions before reaping.
    pub fn outstanding_dispatched(&self) -> usize {
        self.inflight() - self.held.len() - self.ready.len()
    }

    /// The connection can be dropped: it broke, or the client hung up
    /// and everything it asked for has been answered and flushed.
    pub fn reapable(&self) -> bool {
        (self.dead || (self.read_closed && self.drained())) && self.outstanding_dispatched() == 0
    }

    /// Whether the write side failed (responses are being discarded).
    pub fn is_dead(&self) -> bool {
        self.dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A scripted stream: reads serve queued chunks then `WouldBlock`
    /// (or EOF once the queue is empty and `eof` is set); writes spend
    /// `write_window` bytes per *sweep* (replenished by the test), then
    /// `WouldBlock`.
    #[derive(Default)]
    struct FakeStream {
        to_read: VecDeque<Vec<u8>>,
        eof: bool,
        written: Vec<u8>,
        write_window: Option<usize>,
        write_broken: bool,
    }

    impl Read for FakeStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.to_read.pop_front() {
                Some(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.to_read.push_front(chunk[n..].to_vec());
                    }
                    Ok(n)
                }
                None if self.eof => Ok(0),
                None => Err(io::Error::from(io::ErrorKind::WouldBlock)),
            }
        }
    }

    impl Write for FakeStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.write_broken {
                return Err(io::Error::from(io::ErrorKind::BrokenPipe));
            }
            let n = match self.write_window {
                Some(0) => return Err(io::Error::from(io::ErrorKind::WouldBlock)),
                Some(w) => w.min(buf.len()),
                None => buf.len(),
            };
            if let Some(w) = self.write_window.as_mut() {
                *w -= n;
            }
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frames_split_across_chunks_and_blank_lines_take_no_seq() {
        let mut stream = FakeStream::default();
        stream.to_read.push_back(b"{\"a\":1}\n\r\n{\"b\"".to_vec());
        stream.to_read.push_back(b":2}\n  \n{\"c\":3}\n".to_vec());
        let mut conn = Conn::new(stream, 0);
        let limits = ConnLimits::default();
        let pumped = conn.pump_read(&limits);
        assert!(pumped.progressed);
        let got: Vec<(u64, &str)> = pumped
            .dispatch
            .iter()
            .map(|f| (f.seq, f.line.as_str()))
            .collect();
        assert_eq!(
            got,
            vec![(0, "{\"a\":1}"), (1, "{\"b\":2}"), (2, "{\"c\":3}")],
            "blank/whitespace lines must not consume sequence numbers"
        );
        // The half-line "{\"c\"" case: an incomplete frame stays pending
        // without a response and without blocking.
        let mut stream = FakeStream::default();
        stream.to_read.push_back(b"{\"partial\"".to_vec());
        let mut conn = Conn::new(stream, 1);
        let pumped = conn.pump_read(&limits);
        assert!(pumped.dispatch.is_empty());
        assert_eq!(conn.inflight(), 0);
        assert!(!conn.read_closed);
    }

    #[test]
    fn responses_emit_in_seq_order_regardless_of_completion_order() {
        let mut stream = FakeStream::default();
        stream
            .to_read
            .push_back(b"{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n".to_vec());
        let mut conn = Conn::new(stream, 0);
        let limits = ConnLimits::default();
        let pumped = conn.pump_read(&limits);
        assert_eq!(pumped.dispatch.len(), 3);
        assert_eq!(conn.inflight(), 3);
        // Finish out of order: 2, 0, 1.
        assert!(conn.complete(2, "r2".into()).is_none());
        assert_eq!(conn.wbuf_len(), 0, "seq 2 must wait for 0 and 1");
        assert!(conn.complete(0, "r0".into()).is_none());
        assert!(conn.complete(1, "r1".into()).is_none());
        assert!(conn.pump_write());
        assert_eq!(conn.stream.written, b"r0\nr1\nr2\n");
        assert!(conn.drained());
    }

    #[test]
    fn order_sensitive_frames_hold_until_predecessors_complete() {
        let mut stream = FakeStream::default();
        stream
            .to_read
            .push_back(b"{\"q\":0}\n{\"op\":\"session/open\"}\n{\"q\":2}\n".to_vec());
        let mut conn = Conn::new(stream, 0);
        let limits = ConnLimits::default();
        let pumped = conn.pump_read(&limits);
        // The session op (seq 1) is held; 0 and 2 dispatch immediately.
        let seqs: Vec<u64> = pumped.dispatch.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![0, 2]);
        assert_eq!(conn.outstanding_dispatched(), 2);
        // Completing 2 first does not release the held frame.
        assert!(conn.complete(2, "r2".into()).is_none());
        // Completing 0 does: the held op is now next in line.
        let released = conn.complete(0, "r0".into()).expect("hold must release");
        assert_eq!(released.seq, 1);
        assert!(conn.complete(1, "r1".into()).is_none());
        assert!(conn.pump_write());
        assert_eq!(conn.stream.written, b"r0\nr1\nr2\n");
        // An order-sensitive frame with nothing in front dispatches
        // immediately (no hold round-trip).
        let mut stream = FakeStream::default();
        stream
            .to_read
            .push_back(b"{\"op\":\"session/query\"}\n".to_vec());
        let mut conn = Conn::new(stream, 1);
        let pumped = conn.pump_read(&limits);
        assert_eq!(pumped.dispatch.len(), 1);
    }

    #[test]
    fn backpressure_stops_reading_at_inflight_and_wbuf_caps() {
        // Inflight cap: with conn_inflight=2, the third line stays in
        // the kernel (here: in the fake's queue).
        let mut stream = FakeStream::default();
        stream.to_read.push_back(b"{\"a\":1}\n{\"b\":2}\n".to_vec());
        stream.to_read.push_back(b"{\"c\":3}\n".to_vec());
        let mut conn = Conn::new(stream, 0);
        let limits = ConnLimits {
            conn_inflight: 2,
            wbuf_soft_cap: 1 << 20,
        };
        let pumped = conn.pump_read(&limits);
        assert_eq!(pumped.dispatch.len(), 2);
        assert!(!conn.wants_read(&limits), "at the cap: reads must stop");
        assert_eq!(conn.stream.to_read.len(), 1, "third chunk left unread");
        // Answering frees the slot and the loop reads again.
        conn.complete(0, "r0".into());
        conn.complete(1, "r1".into());
        assert!(conn.wants_read(&limits));
        let pumped = conn.pump_read(&limits);
        assert_eq!(pumped.dispatch.len(), 1);

        // Slow-reader cap: an unflushable write buffer past the soft cap
        // also stops reads.
        let mut stream = FakeStream {
            write_window: Some(0),
            ..Default::default()
        };
        stream.to_read.push_back(b"{\"a\":1}\n".to_vec());
        let mut conn = Conn::new(stream, 1);
        let limits = ConnLimits {
            conn_inflight: 64,
            wbuf_soft_cap: 4,
        };
        conn.pump_read(&limits);
        conn.complete(0, "a-long-response".into());
        assert!(!conn.pump_write(), "window 0: nothing flushes");
        assert!(!conn.wants_read(&limits), "wbuf over cap: reads must stop");
        // The client drains; reads resume.
        conn.stream.write_window = Some(1024);
        assert!(conn.pump_write());
        assert!(conn.wants_read(&limits));
    }

    #[test]
    fn partial_writes_resume_and_broken_pipe_discards() {
        let mut stream = FakeStream {
            write_window: Some(3),
            ..Default::default()
        };
        stream.to_read.push_back(b"{\"a\":1}\n".to_vec());
        let mut conn = Conn::new(stream, 0);
        let limits = ConnLimits::default();
        conn.pump_read(&limits);
        conn.complete(0, "0123456789".into());
        // 3 bytes of socket budget per sweep: several sweeps to drain
        // 11 bytes, each resuming exactly where the last stopped.
        let mut sweeps = 0;
        while !conn.drained() {
            conn.stream.write_window = Some(3);
            assert!(conn.pump_write(), "must make progress every sweep");
            sweeps += 1;
            assert!(sweeps < 16, "flush loop ran away");
        }
        assert_eq!(conn.stream.written, b"0123456789\n");
        assert!(sweeps >= 3);

        // Broken pipe: dead, buffer discarded, reapable once dispatched
        // work is back.
        let mut stream = FakeStream::default();
        stream.to_read.push_back(b"{\"a\":1}\n".to_vec());
        let mut conn = Conn::new(stream, 1);
        conn.pump_read(&limits);
        conn.stream.write_broken = true;
        assert!(!conn.reapable(), "one request still dispatched");
        conn.complete(0, "r0".into());
        conn.pump_write();
        assert!(conn.is_dead());
        assert_eq!(conn.wbuf_len(), 0, "dead connections hold no bytes");
        assert!(conn.reapable());
    }

    #[test]
    fn eof_with_outstanding_work_reaps_only_after_completion() {
        let mut stream = FakeStream::default();
        stream.to_read.push_back(b"{\"a\":1}\n".to_vec());
        stream.eof = true;
        let mut conn = Conn::new(stream, 0);
        let limits = ConnLimits::default();
        let pumped = conn.pump_read(&limits);
        assert_eq!(pumped.dispatch.len(), 1);
        assert!(conn.read_closed);
        assert!(
            !conn.reapable(),
            "mid-burst disconnect: the dispatched request must finish first"
        );
        conn.complete(0, "r0".into());
        conn.pump_write();
        assert!(conn.drained());
        assert!(conn.reapable(), "answered and flushed: slot must free");
    }

    #[test]
    fn oversized_line_kills_the_connection_instead_of_buffering() {
        // One request, then newline-free garbage forever: the request is
        // still answered, the garbage is dropped once it passes the cap,
        // and the connection is reaped like one whose client hung up.
        let mut stream = FakeStream::default();
        stream.to_read.push_back(b"{\"a\":1}\n".to_vec());
        for _ in 0..((MAX_LINE / (1 << 14)) + 4) {
            stream.to_read.push_back(vec![b'x'; 1 << 14]);
        }
        let mut conn = Conn::new(stream, 0);
        let limits = ConnLimits::default();
        let mut framed = Vec::new();
        let mut sweeps = 0;
        while !conn.read_closed {
            framed.extend(conn.pump_read(&limits).dispatch);
            sweeps += 1;
            assert!(sweeps < 4096, "line cap never tripped");
        }
        assert!(!conn.stream.to_read.is_empty(), "reading stops at the cap");
        assert_eq!(conn.rbuf.capacity(), 0, "the partial line is dropped");
        assert_eq!(framed.len(), 1);
        assert!(!conn.reapable(), "the earlier request is still dispatched");
        conn.complete(framed[0].seq, "r0".into());
        conn.pump_write();
        assert_eq!(conn.stream.written, b"r0\n", "earlier frames are answered");
        assert!(conn.reapable());
    }

    /// Feeds a line of `head` bytes of `x`, then `last`, one read per
    /// sweep; returns the framed line lengths and the connection.
    fn sweep_line(head: usize, last: &[u8]) -> (Vec<usize>, Conn<FakeStream>) {
        let mut conn = Conn::new(FakeStream::default(), 0);
        let limits = ConnLimits::default();
        let mut framed = Vec::new();
        let mut left = head;
        while left > 0 {
            let n = left.min(READ_CHUNK);
            conn.stream.to_read.push_back(vec![b'x'; n]);
            framed.extend(
                conn.pump_read(&limits)
                    .dispatch
                    .iter()
                    .map(|f| f.line.len()),
            );
            left -= n;
        }
        conn.stream.to_read.push_back(last.to_vec());
        framed.extend(
            conn.pump_read(&limits)
                .dispatch
                .iter()
                .map(|f| f.line.len()),
        );
        (framed, conn)
    }

    #[test]
    fn line_cap_counts_line_bytes_however_reads_split_them() {
        // Exactly MAX_LINE bytes, the newline in the same read as the
        // last byte: framed.
        let (framed, conn) = sweep_line(MAX_LINE - 1, b"x\n");
        assert_eq!(framed, vec![MAX_LINE]);
        assert!(!conn.read_closed);
        // The same line with its newline in the next read: framed too.
        let (framed, conn) = sweep_line(MAX_LINE, b"\n");
        assert_eq!(framed, vec![MAX_LINE]);
        assert!(!conn.read_closed);
        // MAX_LINE + 100 bytes whose tail and newline arrive in one
        // read: over the cap, so input ends and nothing is framed.
        let mut tail = vec![b'x'; 200];
        tail.push(b'\n');
        let (framed, conn) = sweep_line(MAX_LINE - 100, &tail);
        assert!(framed.is_empty(), "{framed:?}");
        assert!(conn.read_closed);
        assert_eq!(conn.rbuf.capacity(), 0);
        assert!(conn.reapable());
    }
}
