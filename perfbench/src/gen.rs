//! The load generator: one thread, one connection per UA instance, wire
//! frames written straight to the UA sockets.
//!
//! Requests are encrypted and framed before the timed window, so the
//! window holds only socket work, frame decoding and the opening of
//! answers. The thread waits in `ppoll(2)` on every connection at once
//! with the next due time as timeout: it never polls in a loop, and a due
//! time is met to within scheduler latency.

use crate::plan::Kind;
use crate::sys;
use pprox_core::client::GetTicket;
use pprox_core::message::EncryptedList;
use pprox_core::UserClient;
use pprox_wire::frame::parse_header;
use pprox_wire::{Frame, PadClass, WireStatus, HEADER_LEN};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long answers are awaited after the last request is sent. Beyond
/// the cluster's own 2 s request budget, so a missing answer here means
/// the chain lost the request.
const DRAIN: Duration = Duration::from_secs(5);

/// A request ready for the wire.
pub struct Prepared {
    /// Get or post.
    pub kind: Kind,
    /// The encoded `Request`-class frame; its correlation id is the
    /// request's index on its connection.
    pub frame: Vec<u8>,
    /// The key that opens a get's answer.
    pub ticket: Option<GetTicket>,
}

/// Why a request did not succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with the expected content.
    Ok,
    /// Never answered (connection lost or drain expired).
    NoAnswer,
    /// Answered with a control status such as `busy` or `deadline`.
    Status(String),
    /// Answered, but the content is wrong.
    Wrong,
    /// A `recommend` get answered with a well-formed list that ranks
    /// differently from the plaintext reference (fault F1).
    RankF1,
}

/// One request's life, in µs since the phase started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Get or post.
    pub kind: Kind,
    /// Connection (UA instance) index.
    pub conn: usize,
    /// When it was due (open loop) or its window slot freed (closed).
    pub due_us: u64,
    /// When its frame was written.
    pub sent_us: Option<u64>,
    /// When its answer frame was read.
    pub answered_us: Option<u64>,
    /// When its answer was opened and checked.
    pub opened_us: Option<u64>,
    /// Result.
    pub outcome: Outcome,
    /// The opened item list of a get, when the caller keeps lists.
    pub items: Option<Vec<String>>,
}

impl Span {
    /// Latency from due time to the opened answer, in ms.
    pub fn latency_ms(&self) -> Option<f64> {
        Some(self.opened_us?.saturating_sub(self.due_us) as f64 / 1000.0)
    }

    /// Lateness of the send against the due time, in ms.
    pub fn lateness_ms(&self) -> Option<f64> {
        Some(self.sent_us?.saturating_sub(self.due_us) as f64 / 1000.0)
    }
}

/// What the generator checks each answer against.
pub struct Expect<'a> {
    /// Every get must open to exactly this list (stub workloads).
    pub stub_list: Option<&'a [String]>,
    /// Keep each get's opened list for a later reference check.
    pub keep_lists: bool,
}

/// The result of driving one phase.
pub struct PhaseRun {
    /// Spans, per connection in sending order.
    pub spans: Vec<Vec<Span>>,
    /// CPU the generator thread used during the phase, ms.
    pub gen_cpu_ms: f64,
    /// Whether a closed window ran out of prepared requests.
    pub pool_exhausted: bool,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    reqs: Vec<Prepared>,
    due: Vec<u64>,
    spans: Vec<Span>,
    next: usize,
    in_flight: usize,
    alive: bool,
}

fn now_us(t0: Instant) -> u64 {
    t0.elapsed().as_micros() as u64
}

/// Opens one connection per address.
///
/// # Errors
///
/// Connect failures.
pub fn connect(addrs: &[SocketAddr]) -> std::io::Result<Vec<TcpStream>> {
    addrs
        .iter()
        .map(|a| {
            let s = TcpStream::connect(a)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect()
}

/// Drives one phase: `reqs[c]` go over `streams[c]`, open loop at the
/// due times `due[c]`, or with `window` requests in flight per
/// connection until `length_us` passes. Returns when every request is
/// answered or the drain expires.
pub fn drive(
    streams: &[TcpStream],
    reqs: Vec<Vec<Prepared>>,
    window: Option<usize>,
    due: Vec<Vec<u64>>,
    length_us: u64,
    client: &UserClient,
    expect: &Expect<'_>,
) -> std::io::Result<PhaseRun> {
    let mut conns: Vec<Conn> = streams
        .iter()
        .zip(reqs)
        .zip(due)
        .map(|((s, reqs), due)| {
            Ok(Conn {
                stream: s.try_clone()?,
                buf: Vec::with_capacity(1 << 16),
                spans: Vec::with_capacity(reqs.len()),
                reqs,
                due,
                next: 0,
                in_flight: 0,
                alive: true,
            })
        })
        .collect::<std::io::Result<_>>()?;
    let cpu0 = sys::thread_cpu_ms();
    let t0 = Instant::now();
    let mut last_send_us = 0u64;
    let mut pool_exhausted = false;
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        let now = now_us(t0);
        for (ci, c) in conns.iter_mut().enumerate() {
            while c.alive && c.next < c.reqs.len() {
                let due_us = match window {
                    None if c.due[c.next] <= now => c.due[c.next],
                    Some(w) if c.in_flight < w && now < length_us => now,
                    _ => break,
                };
                let idx = c.next;
                c.next += 1;
                let sent = now_us(t0);
                let ok = c.stream.write_all(&c.reqs[idx].frame).is_ok();
                c.spans.push(Span {
                    kind: c.reqs[idx].kind,
                    conn: ci,
                    due_us,
                    sent_us: ok.then_some(sent),
                    answered_us: None,
                    opened_us: None,
                    outcome: Outcome::NoAnswer,
                    items: None,
                });
                if ok {
                    c.in_flight += 1;
                    last_send_us = sent;
                } else {
                    c.alive = false;
                }
            }
            if window.is_some() && c.next == c.reqs.len() && now < length_us {
                pool_exhausted = true;
            }
        }
        let sending_done = conns
            .iter()
            .all(|c| !c.alive || c.next == c.reqs.len() || (window.is_some() && now >= length_us));
        let in_flight: usize = conns.iter().filter(|c| c.alive).map(|c| c.in_flight).sum();
        if sending_done && in_flight == 0 {
            break;
        }
        let drain_end = last_send_us.max(length_us) + DRAIN.as_micros() as u64;
        if sending_done && now >= drain_end {
            break;
        }
        let wake = if sending_done {
            drain_end
        } else {
            match window {
                Some(_) => length_us.min(drain_end),
                None => conns
                    .iter()
                    .filter(|c| c.alive && c.next < c.reqs.len())
                    .map(|c| c.due[c.next])
                    .min()
                    .unwrap_or(drain_end),
            }
        };
        let live: Vec<usize> = (0..conns.len()).filter(|&i| conns[i].alive).collect();
        let streams: Vec<&TcpStream> = live.iter().map(|&i| &conns[i].stream).collect();
        let ready = sys::wait_readable(&streams, Duration::from_micros(wake.saturating_sub(now)))?;
        for (&ci, ready) in live.iter().zip(ready) {
            if !ready {
                continue;
            }
            let c = &mut conns[ci];
            match c.stream.read(&mut chunk) {
                Ok(0) | Err(_) => c.alive = false,
                Ok(n) => c.buf.extend_from_slice(&chunk[..n]),
            }
            let answered = now_us(t0);
            while let Some(frame) = take_frame(&mut c.buf) {
                let Some(frame) = frame else {
                    c.alive = false; // desynchronized stream
                    break;
                };
                let idx = frame.corr as usize;
                let Some(span) = c.spans.get_mut(idx) else {
                    continue;
                };
                if span.answered_us.is_some() {
                    continue; // duplicate answer: the first one counts
                }
                span.answered_us = Some(answered);
                let (outcome, items) = judge(
                    &frame,
                    span.kind,
                    c.reqs[idx].ticket.as_ref(),
                    client,
                    expect,
                );
                span.outcome = outcome;
                span.items = items;
                span.opened_us = Some(now_us(t0));
                c.in_flight -= 1;
            }
        }
    }
    let gen_cpu_ms = sys::thread_cpu_ms() - cpu0;
    Ok(PhaseRun {
        spans: conns.into_iter().map(|c| c.spans).collect(),
        gen_cpu_ms,
        pool_exhausted,
    })
}

/// Splits one whole frame off the front of `buf`: `None` when more bytes
/// are needed, `Some(None)` when the bytes are not a frame.
fn take_frame(buf: &mut Vec<u8>) -> Option<Option<Frame>> {
    if buf.len() < HEADER_LEN {
        return None;
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&buf[..HEADER_LEN]);
    let Ok((_, body_len, _)) = parse_header(&header) else {
        return Some(None);
    };
    let total = HEADER_LEN + body_len;
    if buf.len() < total {
        return None;
    }
    let frame = Frame::decode(&buf[..total]).ok();
    buf.drain(..total);
    Some(frame)
}

fn judge(
    frame: &Frame,
    kind: Kind,
    ticket: Option<&GetTicket>,
    client: &UserClient,
    expect: &Expect<'_>,
) -> (Outcome, Option<Vec<String>>) {
    match frame.class {
        PadClass::Control => {
            let status = WireStatus::from_payload(&frame.payload)
                .map_or("unknown", WireStatus::as_str)
                .to_string();
            (Outcome::Status(status), None)
        }
        PadClass::Request => (Outcome::Wrong, None),
        PadClass::Response => match kind {
            Kind::Post if frame.payload == b"{\"ok\":true}" => (Outcome::Ok, None),
            Kind::Post => (Outcome::Wrong, None),
            Kind::Get => {
                let opened = ticket.and_then(|t| {
                    let list = EncryptedList::from_frame(&frame.payload).ok()?;
                    client.open_response(t, &list).ok()
                });
                match opened {
                    None => (Outcome::Wrong, None),
                    Some(items) => {
                        if expect
                            .stub_list
                            .is_some_and(|want| want != items.as_slice())
                        {
                            (Outcome::Wrong, None)
                        } else {
                            (Outcome::Ok, expect.keep_lists.then_some(items))
                        }
                    }
                }
            }
        },
    }
}
