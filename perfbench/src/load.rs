//! The closed-loop load phase: each connection sends its next request
//! only after the final frame of the previous one arrived.

use crate::gen::{Generator, Workload};
use nassim_serve::ServeClient;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One answered (or failed) request as the client saw it.
pub struct Record {
    pub conn: usize,
    pub index: u64,
    pub warmup: bool,
    /// Send time relative to the start of the measured window (negative
    /// for warm-up requests).
    pub sent_s: f64,
    /// Request sent until the first reply frame was read.
    pub first_ms: f64,
    /// Request sent until the final frame was read.
    pub total_ms: f64,
    /// Hash of every reply frame, in arrival order; the oracle compares
    /// these with the hashes of the frames it expects.
    pub frames: Vec<u64>,
    /// Whether the final frame is an `ok` reply.
    pub ok: bool,
    pub request_bytes: usize,
    pub reply_bytes: usize,
    /// I/O error that ended the request, if any.
    pub error: Option<String>,
}

pub struct LoadRun {
    pub records: Vec<Record>,
    /// Measured window: from its start until the last in-window request
    /// completed.
    pub window_s: f64,
}

pub fn frame_hash(line: &str) -> u64 {
    let mut h = DefaultHasher::new();
    line.hash(&mut h);
    h.finish()
}

/// Send one request line and read frames through the final one.
fn exchange(client: &mut ServeClient, line: &str, rec: &mut Record) -> std::io::Result<()> {
    let t0 = Instant::now();
    client.send_line(line)?;
    loop {
        let frame = client.read_raw()?;
        let now = t0.elapsed().as_secs_f64() * 1e3;
        if rec.frames.is_empty() {
            rec.first_ms = now;
        }
        rec.total_ms = now;
        rec.reply_bytes += frame.len() + 1;
        rec.frames.push(frame_hash(&frame));
        // Replies carry a fixed key order, so a progress frame is
        // recognisable by its prefix without parsing it on the clock.
        if !frame.starts_with("{\"progress\"") {
            rec.ok = frame.starts_with("{\"ok\"");
            return Ok(());
        }
    }
}

/// One connection's loop: warm-up requests, the shared start barrier,
/// then requests until the window closes.
fn drive(
    addr: SocketAddr,
    generator: &Generator,
    workload: Workload,
    conn: usize,
    window: Duration,
    barrier: &Barrier,
) -> (Vec<Record>, Instant, Instant) {
    let mut records = Vec::new();
    let mut client = ServeClient::connect(addr);
    let mut index = 0u64;
    let send = |client: &mut std::io::Result<ServeClient>,
                index: u64,
                warmup: bool,
                start: Option<Instant>| {
        // The line is built off the clock: serialising is the client's
        // cost, not the daemon's.
        let line = generator.item(conn, index).request.to_line();
        let sent_s = start.map_or(-1.0, |s| s.elapsed().as_secs_f64());
        let mut rec = Record {
            conn,
            index,
            warmup,
            sent_s,
            first_ms: 0.0,
            total_ms: 0.0,
            frames: Vec::new(),
            ok: false,
            request_bytes: line.len() + 1,
            reply_bytes: 0,
            error: None,
        };
        let result = match client {
            Ok(c) => exchange(c, &line, &mut rec),
            Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
        };
        if let Err(e) = result {
            rec.ok = false;
            rec.error = Some(e.to_string());
            // The stream may be mid-frame; start the next request on a
            // fresh connection.
            *client = ServeClient::connect(addr);
        }
        rec
    };
    while index < workload.warmup() {
        records.push(send(&mut client, index, true, None));
        index += 1;
    }
    barrier.wait();
    let start = Instant::now();
    while start.elapsed() < window {
        records.push(send(&mut client, index, false, Some(start)));
        index += 1;
    }
    (records, start, Instant::now())
}

/// Run the workload's connections against `addr` for `window`.
pub fn run(
    addr: SocketAddr,
    generator: &Generator,
    workload: Workload,
    window: Duration,
) -> LoadRun {
    let conns = workload.connections();
    let barrier = Barrier::new(conns);
    let per_conn: Vec<(Vec<Record>, Instant, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                let barrier = &barrier;
                s.spawn(move || drive(addr, generator, workload, conn, window, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let start = per_conn
        .iter()
        .map(|(_, s, _)| *s)
        .min()
        .unwrap_or_else(Instant::now);
    let end = per_conn.iter().map(|(_, _, e)| *e).max().unwrap_or(start);
    let mut records: Vec<Record> = per_conn.into_iter().flat_map(|(r, _, _)| r).collect();
    records.sort_by(|a, b| a.sent_s.total_cmp(&b.sent_s).then(a.conn.cmp(&b.conn)));
    LoadRun {
        records,
        window_s: end.duration_since(start).as_secs_f64(),
    }
}
