//! Per-layer measurements taken from outside the library: each layer's
//! public entry points are called at the workload's sizes and timed here,
//! and the program's own counters are turned into per-step rates.

use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use couplink_layout::{LocalArray, Rect, SharedArray};
use couplink_metrics::{CounterSnapshot, CtrlClass, EngineMetrics};
use couplink_proto::wire::{self, FrameDecoder, WireRect};
use couplink_proto::{
    ConnectionId, CtrlMsg, ExportPort, ExporterRep, ProcResponse, Rank, RepAnswer, RequestId,
};
use couplink_runtime::engine::{Endpoint, Reliability, RetryPolicy, Wal, WalRecord, WireMeta};
use couplink_runtime::net::link::{BufPool, Conn, FrameReader, LinkWriter};
use couplink_runtime::net::FileWal;
use couplink_time::{evaluate, ts, ExportHistory, MatchPolicy, Tolerance};

use crate::stats::{median, ratio, RunResult};

/// splitmix64: the benchmark's only source of pseudo-randomness.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-call times of `f`, in seconds, over `reps` calls (after one
/// warm-up call), each sample covering `batch` back-to-back calls.
fn per_call(reps: usize, batch: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect()
}

/// How many calls to batch so one sample of a `bytes`-sized operation
/// takes a few microseconds or more (bounds timer overhead).
fn batch_for(bytes: usize) -> usize {
    (65_536 / bytes.max(1)).clamp(1, 256)
}

/// Repetitions so a `bytes`-sized layer call is sampled for roughly a
/// fixed budget at an assumed 1 GB/s.
fn reps_for(bytes: usize, batch: usize) -> usize {
    let per_sample = (bytes * batch) as f64 / 1e9;
    ((0.05 / per_sample) as usize).clamp(30, 2000)
}

/// The minor page faults of this process and its reaped children
/// (fields 10 and 12 of `/proc/self/stat`), 0 when unreadable.
pub fn minor_faults() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 2..]) else {
        return 0;
    };
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|s| s.parse().unwrap_or(0))
        .collect();
    // `rest` starts at field 3 (state): minflt is field 10, cminflt 11.
    f.get(7).copied().unwrap_or(0) + f.get(8).copied().unwrap_or(0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The shape one workload moves: the exporter's piece and the importer's
/// destination, the coupling rule and the schedule.
pub struct Shape {
    /// One exporter rank's owned rectangle.
    pub piece: Rect,
    /// The importer rank's owned rectangle the piece lands in.
    pub dest: Rect,
    /// Match policy of the connection.
    pub policy: MatchPolicy,
    /// Match tolerance.
    pub tol: f64,
    /// First export time and export period.
    pub t0: f64,
    /// Export period.
    pub dt: f64,
    /// Exports per import.
    pub import_every: usize,
    /// Import offset: the first import asks for `t0 + offset`.
    pub import_offset: f64,
    /// Exporting ranks behind one rep.
    pub ranks: usize,
}

/// Layout layer: `SharedArray::copy_from` (the buffering memcpy,
/// allocation included), `copy_into` (the importer copy-out), and the
/// reference `copy_from_slice` of the same bytes, all in microseconds.
pub fn layout(shape: &Shape, r: &mut RunResult) -> (f64, f64) {
    let piece = LocalArray::from_fn(shape.piece, |row, col| (row * 31 + col) as f64);
    let bytes = piece.len() * 8;
    let batch = batch_for(bytes);
    let reps = reps_for(bytes, batch);
    let copy_from = median(&per_call(reps, batch, || {
        std::hint::black_box(SharedArray::copy_from(std::hint::black_box(&piece)));
    }));
    let mut plain = vec![0f64; piece.len()];
    let reference = median(&per_call(reps, batch, || {
        plain.copy_from_slice(std::hint::black_box(piece.as_slice()));
        std::hint::black_box(&plain);
    }));
    let shared = SharedArray::copy_from(&piece);
    let mut dest = LocalArray::zeros(shape.dest);
    let copy_into = median(&per_call(reps, batch, || {
        shared.copy_into(&shape.piece, std::hint::black_box(&mut dest));
    }));
    r.metric("layout.copy_from_us", copy_from * 1e6, "us");
    r.metric("layout.copy_into_us", copy_into * 1e6, "us");
    r.metric("layout.copy_bw_frac", ratio(reference, copy_from), "ratio");
    r.metric("ref.copy_from_slice_us", reference * 1e6, "us");
    (copy_from * 1e6, copy_into * 1e6)
}

fn wire_rect(r: Rect) -> WireRect {
    WireRect {
        row0: r.row0 as u64,
        col0: r.col0 as u64,
        rows: r.rows as u64,
        cols: r.cols as u64,
    }
}

/// One encoded payload frame carrying `piece`, as the socket path builds
/// it for a transfer.
fn payload_frame(piece: &LocalArray, buf: Vec<u8>) -> Vec<u8> {
    let rect = wire_rect(piece.owned());
    wire::encode_payload_with(
        buf,
        ConnectionId(0),
        Rank(0),
        RequestId(7),
        rect,
        rect,
        piece.as_slice(),
    )
}

/// A representative control message mix: one collective's request,
/// forward, response, buddy-help and answers.
fn ctrl_mix() -> Vec<CtrlMsg> {
    let (conn, req, t) = (ConnectionId(0), RequestId(41), ts(42.0));
    vec![
        CtrlMsg::ImportCall {
            conn,
            rank: Rank(3),
            ts: t,
        },
        CtrlMsg::ImportRequest { conn, req, ts: t },
        CtrlMsg::ForwardRequest { conn, req, ts: t },
        CtrlMsg::Response {
            conn,
            req,
            rank: Rank(5),
            resp: ProcResponse::Match(t),
        },
        CtrlMsg::BuddyHelp {
            conn,
            req,
            answer: RepAnswer::Match(t),
        },
        CtrlMsg::Answer {
            conn,
            req,
            answer: RepAnswer::Match(t),
        },
        CtrlMsg::AnswerBcast {
            conn,
            req,
            answer: RepAnswer::Match(t),
        },
    ]
}

/// Wire layer costs, in microseconds per payload frame and nanoseconds
/// per control message.
pub struct WireCost {
    /// `encode_payload_with` into a reused buffer, CRC included.
    pub encode_us: f64,
    /// `crc32` over the body (what the receiver verifies).
    pub crc_us: f64,
    /// `decode_payload` of the body.
    pub decode_us: f64,
    /// `encode_ctrl` per message.
    pub encode_ctrl_ns: f64,
    /// `decode_ctrl` per message.
    pub decode_ctrl_ns: f64,
}

/// Wire layer: the payload codec at the workload's piece size and the
/// control codec over [`ctrl_mix`].
pub fn wire_layer(shape: &Shape, r: &mut RunResult) -> WireCost {
    let piece = LocalArray::from_fn(shape.piece, |row, col| (row + col) as f64);
    let frame = payload_frame(&piece, Vec::new());
    let bytes = frame.len();
    let batch = batch_for(bytes);
    let reps = reps_for(bytes, batch);
    let mut buf = Some(Vec::with_capacity(bytes));
    let encode = median(&per_call(reps, batch, || {
        let f = payload_frame(&piece, buf.take().unwrap_or_default());
        buf = Some(std::hint::black_box(f));
    }));
    let mut dec = FrameDecoder::new();
    dec.extend(&frame);
    let slot = dec
        .poll_frame()
        .expect("a frame the encoder just built decodes")
        .expect("the whole frame is buffered");
    let body = dec.body(&slot).to_vec();
    let crc = median(&per_call(reps, batch, || {
        std::hint::black_box(wire::crc32(std::hint::black_box(&body)));
    }));
    let decode = median(&per_call(reps, batch, || {
        std::hint::black_box(wire::decode_payload(&body).expect("valid payload"));
    }));
    let msgs = ctrl_mix();
    let bodies: Vec<Vec<u8>> = msgs.iter().map(wire::encode_ctrl).collect();
    let n = msgs.len() as f64;
    let enc_ctrl = median(&per_call(200, 64, || {
        for m in &msgs {
            std::hint::black_box(wire::encode_ctrl(std::hint::black_box(m)));
        }
    })) / n;
    let dec_ctrl = median(&per_call(200, 64, || {
        for b in &bodies {
            std::hint::black_box(wire::decode_ctrl(b).expect("valid ctrl body"));
        }
    })) / n;
    let cost = WireCost {
        encode_us: encode * 1e6,
        crc_us: crc * 1e6,
        decode_us: decode * 1e6,
        encode_ctrl_ns: enc_ctrl * 1e9,
        decode_ctrl_ns: dec_ctrl * 1e9,
    };
    r.metric("wire.encode_payload_us", cost.encode_us, "us");
    r.metric("wire.crc32_us", cost.crc_us, "us");
    r.metric("wire.decode_payload_us", cost.decode_us, "us");
    r.metric("wire.encode_ctrl_ns", cost.encode_ctrl_ns, "ns");
    r.metric("wire.decode_ctrl_ns", cost.decode_ctrl_ns, "ns");
    cost
}

/// Wall time per frame of `LinkWriter::send` into one end of a UDS pair
/// while a `FrameReader` drains the other, for `frames` copies of
/// `frame` (taken from a pool the writer recycles into). Microseconds.
fn link_send_us(frame: &[u8], frames: usize) -> Result<f64, String> {
    let (a, b) = UnixStream::pair().map_err(|e| format!("socketpair: {e}"))?;
    let metrics = Arc::new(EngineMetrics::default());
    let pool = BufPool::new(Some(metrics.clone()));
    let writer = LinkWriter::spawn_with(
        Conn::Uds(a),
        "perf-link".into(),
        None,
        Some(metrics),
        Some(pool.clone()),
    );
    let reader = std::thread::spawn(move || -> Result<usize, String> {
        let mut rd = FrameReader::new(Conn::Uds(b));
        let mut got = 0;
        let mut reject = || {};
        while got < frames {
            match rd.next_slot(&mut reject) {
                Ok(Some(slot)) => {
                    std::hint::black_box(rd.body(&slot).len());
                    got += 1;
                }
                Ok(None) => break,
                Err(e) => return Err(format!("link reader: {e}")),
            }
        }
        Ok(got)
    });
    let start = Instant::now();
    for _ in 0..frames {
        let mut buf = pool.take(frame.len());
        buf.extend_from_slice(frame);
        if !writer.send(buf) {
            break;
        }
    }
    let got = reader
        .join()
        .map_err(|_| "link reader panicked".to_string())??;
    let wall = start.elapsed().as_secs_f64();
    drop(writer.retire());
    if got != frames {
        return Err(format!("link delivered {got} of {frames} frames"));
    }
    Ok(wall * 1e6 / frames as f64)
}

/// Link layer: per-frame send cost at the payload frame size and at a
/// control frame's size. Returns `(payload_us, ctrl_us)`.
pub fn link_layer(shape: &Shape, r: &mut RunResult) -> (f64, f64) {
    let piece = LocalArray::from_fn(shape.piece, |row, col| (row ^ col) as f64);
    let payload = payload_frame(&piece, Vec::new());
    let ctrl = wire::encode_frame(16, &wire::encode_ctrl(&ctrl_mix()[3]));
    let n_payload = (256 << 20) / payload.len().max(1);
    let mut sample = |frame: &[u8], n: usize| -> f64 {
        let xs: Vec<f64> = (0..3)
            .filter_map(|_| match link_send_us(frame, n.clamp(16, 20_000)) {
                Ok(us) => Some(us),
                Err(e) => {
                    r.fail(e);
                    None
                }
            })
            .collect();
        median(&xs)
    };
    let payload_us = sample(&payload, n_payload);
    let ctrl_us = sample(&ctrl, 20_000);
    r.attempt(6);
    r.metric("link.send_us", payload_us, "us");
    r.metric("link.send_ctrl_us", ctrl_us, "us");
    (payload_us, ctrl_us)
}

/// The per-step journal mix `(appends, export records)`: what the
/// nodes appended when they journaled, else what a journal would take for
/// the same traffic (one record per control message plus one per export).
fn journal_mix(c: &CounterSnapshot, steps: f64) -> (usize, usize) {
    let appends = if c.wal_appends > 0 {
        c.wal_appends
    } else {
        c.ctrl_total() + c.export_calls
    };
    let per = |x: u64| (ratio(x as f64, steps).round() as usize).max(1);
    (per(appends), per(c.export_calls))
}

/// WAL layer: `FileWal::append` and `sync` fed the workload's per-step
/// record mix (`appends` records per step, `exports` of them export
/// positions), one sync per step, under `dir`. Returns `(append_us,
/// sync_us)`.
pub fn wal_layer(dir: &Path, appends: usize, exports: usize, r: &mut RunResult) -> (f64, f64) {
    let dir = dir.join("perf-wal");
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = Arc::new(EngineMetrics::default());
    let mut wal = match FileWal::open(&dir, "perf", FileWal::SEGMENT_BYTES, metrics) {
        Ok((w, _)) => w,
        Err(e) => {
            r.fail(format!("opening the benchmark WAL: {e}"));
            return (0.0, 0.0);
        }
    };
    r.attempt(1);
    let msgs = ctrl_mix();
    let (mut append_s, mut syncs) = (Vec::new(), Vec::new());
    let budget = Instant::now() + Duration::from_millis(600);
    let mut seq = 0u64;
    while syncs.len() < 20 || (Instant::now() < budget && syncs.len() < 400) {
        let t = Instant::now();
        for i in 0..appends {
            seq += 1;
            let rec = if i < exports {
                WalRecord::AppExport {
                    ep: Endpoint::Proc { prog: 0, rank: i },
                    region: 0,
                    ts: ts(seq as f64),
                }
            } else {
                WalRecord::Delivered {
                    ep: Endpoint::Rep { prog: 1 },
                    meta: WireMeta {
                        from: Endpoint::Proc { prog: 0, rank: i },
                        seq,
                        ord: Some(seq),
                    },
                    msg: msgs[i % msgs.len()],
                }
            };
            wal.append(&rec);
        }
        append_s.push(t.elapsed().as_secs_f64() / appends as f64);
        let t = Instant::now();
        wal.sync();
        syncs.push(t.elapsed().as_secs_f64());
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    let (a, s) = (median(&append_s) * 1e6, median(&syncs) * 1e6);
    r.metric("wal.append_us", a, "us");
    r.metric("wal.sync_us", s, "us");
    (a, s)
}

/// Per-message costs of the reliability layer, in nanoseconds.
pub struct ReliableCost {
    /// `Reliability::register` on the sender.
    pub register_ns: f64,
    /// `Reliability::receive` on the receiver.
    pub receive_ns: f64,
    /// `Reliability::on_ack` back on the sender.
    pub on_ack_ns: f64,
}

/// The sender and receiver of a control message of `class`, with `i`
/// picking the rank on the process side.
fn ctrl_link(class: CtrlClass, i: usize, ranks: usize) -> (Endpoint, Endpoint) {
    let proc = |prog| Endpoint::Proc {
        prog,
        rank: i % ranks,
    };
    let (exp, imp) = (Endpoint::Rep { prog: 0 }, Endpoint::Rep { prog: 1 });
    match class {
        CtrlClass::ImportCall => (proc(1), imp),
        CtrlClass::ImportRequest => (imp, exp),
        CtrlClass::ForwardRequest | CtrlClass::BuddyHelp => (exp, proc(0)),
        CtrlClass::Response => (proc(0), exp),
        CtrlClass::Answer => (exp, imp),
        CtrlClass::AnswerBcast | CtrlClass::Ack | CtrlClass::Heartbeat => (imp, proc(1)),
    }
}

/// Reliability layer: the workload's control traffic, by class as the
/// counters report it per step, sequenced through one `Reliability` with
/// the default `RetryPolicy`: `register` on the sender, `receive` on the
/// receiver and `on_ack` back on the sender, each timed per message. Acks
/// and heartbeats ride unsequenced, so they are not replayed.
pub fn reliable_layer(
    c: &CounterSnapshot,
    steps: f64,
    ranks: usize,
    r: &mut RunResult,
) -> ReliableCost {
    let kinds = ctrl_mix();
    // A hundred steps' worth of messages, in class order, at least one.
    // `ctrl_mix` holds the seven sequenced classes in `CtrlClass::ALL`
    // order, so the zip leaves acks and heartbeats out.
    let mut msgs = Vec::new();
    for (class, msg) in CtrlClass::ALL.into_iter().zip(&kinds) {
        let n = ratio(c.ctrl(class) as f64 * 100.0, steps).round() as usize;
        msgs.extend((0..n).map(|i| (ctrl_link(class, i, ranks), *msg)));
    }
    if msgs.is_empty() {
        msgs.push((ctrl_link(CtrlClass::Response, 0, ranks), kinds[3]));
    }
    let n = msgs.len() as f64;
    let (mut reg_ns, mut recv_ns, mut ack_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut errors = 0u64;
    let mut metas = Vec::with_capacity(msgs.len());
    for round in 0..10 {
        let mut rel = Reliability::new(RetryPolicy::default(), Arc::new(EngineMetrics::default()));
        for pass in 0..20 {
            let now = (round * 20 + pass) as f64;
            metas.clear();
            let t = Instant::now();
            for ((from, to), msg) in &msgs {
                metas.push(rel.register(*from, *to, msg, now));
            }
            reg_ns.push(t.elapsed().as_secs_f64() * 1e9 / n);
            let t = Instant::now();
            for (((_, to), msg), meta) in msgs.iter().zip(&metas) {
                let got = meta.map(|m| rel.receive(m, *to, *msg));
                errors += !got.is_some_and(|g| g.deliver.len() == 1 && g.acks.len() == 1) as u64;
            }
            recv_ns.push(t.elapsed().as_secs_f64() * 1e9 / n);
            let t = Instant::now();
            for (((from, to), _), meta) in msgs.iter().zip(&metas) {
                errors += !meta.is_some_and(|m| rel.on_ack(*from, *to, m.seq)) as u64;
            }
            ack_ns.push(t.elapsed().as_secs_f64() * 1e9 / n);
        }
        errors += (rel.pending_len() != 0) as u64;
    }
    r.attempt(1);
    if errors > 0 {
        r.fail(format!("reliability replay mishandled {errors} messages"));
    }
    let cost = ReliableCost {
        register_ns: median(&reg_ns),
        receive_ns: median(&recv_ns),
        on_ack_ns: median(&ack_ns),
    };
    r.metric("reliable.register_ns", cost.register_ns, "ns");
    r.metric("reliable.receive_ns", cost.receive_ns, "ns");
    r.metric("reliable.on_ack_ns", cost.on_ack_ns, "ns");
    cost
}

/// Protocol layer: the workload's export timestamps and collective
/// responses replayed through one `ExportPort` and an `ExporterRep`
/// serving `shape.ranks` ranks. Returns `(on_export_ns,
/// on_response_ns)`.
pub fn proto_layer(shape: &Shape, r: &mut RunResult) -> (f64, f64) {
    let tol = Tolerance::new(shape.tol).expect("workload tolerance is valid");
    let mut export_ns = Vec::new();
    let mut response_ns = Vec::new();
    let mut errors = 0u64;
    for _round in 0..5 {
        let mut port = ExportPort::new(ConnectionId(0), shape.policy, tol);
        let mut rep = ExporterRep::new(shape.ranks, true);
        let mut next_import = shape.t0 + shape.import_offset;
        let (mut req, mut batch, mut batch_start) = (0u64, 0usize, Instant::now());
        for k in 0..4000usize {
            let t = shape.t0 + k as f64 * shape.dt;
            errors += port.on_export(ts(t)).is_err() as u64;
            batch += 1;
            // The first export past a request's time makes it decidable:
            // the exporters ran ahead, as in the workloads.
            if t <= next_import {
                continue;
            }
            export_ns.push(batch_start.elapsed().as_secs_f64() * 1e9 / batch as f64);
            req += 1;
            let (id, x) = (RequestId(req), ts(next_import));
            errors += rep.on_import_request(id, x).is_err() as u64;
            match port.on_request(id, x) {
                Ok(fx) => {
                    let start = Instant::now();
                    for rank in 0..shape.ranks {
                        errors +=
                            rep.on_response(Rank(rank as u32), id, fx.response).is_err() as u64;
                    }
                    response_ns.push(start.elapsed().as_secs_f64() * 1e9 / shape.ranks as f64);
                }
                Err(_) => errors += 1,
            }
            next_import += shape.import_every as f64 * shape.dt;
            (batch, batch_start) = (0, Instant::now());
        }
    }
    r.attempt(1);
    if errors > 0 {
        r.fail(format!("protocol replay rejected {errors} events"));
    }
    let (e, s) = (median(&export_ns), median(&response_ns));
    r.metric("proto.on_export_ns", e, "ns");
    r.metric("proto.rep_on_response_ns", s, "ns");
    (e, s)
}

/// Time layer: `evaluate` of the workload's request regions against a
/// history of its export timestamps. A control: nothing should move it.
pub fn time_layer(shape: &Shape, r: &mut RunResult) {
    let tol = Tolerance::new(shape.tol).expect("workload tolerance is valid");
    let mut history = ExportHistory::new();
    for k in 0..256 {
        history
            .record(ts(shape.t0 + k as f64 * shape.dt))
            .expect("increasing export times");
    }
    let regions: Vec<_> = (0..64)
        .map(|j| {
            let x = shape.t0 + shape.import_offset + (j * shape.import_every) as f64 * shape.dt;
            shape
                .policy
                .region(ts(x.min(shape.t0 + 250.0 * shape.dt)), tol)
        })
        .collect();
    let per = median(&per_call(200, 16, || {
        for reg in &regions {
            std::hint::black_box(evaluate(reg, &history).ok());
        }
    })) / regions.len() as f64;
    r.metric("time.evaluate_ns", per * 1e9, "ns");
}

/// Counter-derived per-step rates shared by every workload: executor,
/// protocol, link, WAL and reliability layers.
pub fn counter_layers(c: &CounterSnapshot, steps: f64, r: &mut RunResult) {
    let per = |x: u64| ratio(x as f64, steps);
    let exports = (c.memcpy_paid + c.memcpy_skipped) as f64;
    r.metric(
        "threaded.export_skip_frac",
        ratio(c.memcpy_skipped as f64, exports),
        "ratio",
    );
    r.metric(
        "threaded.lock_wait_us_per_step",
        per(c.lock_wait_ns) / 1e3,
        "us",
    );
    r.metric(
        "threaded.tasks_polled_per_step",
        per(c.tasks_polled),
        "count",
    );
    r.metric("threaded.runq_depth_hwm", c.runq_depth_hwm as f64, "count");
    r.metric("proto.memcpy_paid_per_step", per(c.memcpy_paid), "count");
    r.metric(
        "proto.memcpy_skipped_per_step",
        per(c.memcpy_skipped),
        "count",
    );
    r.metric(
        "proto.useful_copy_frac",
        ratio(c.transfers as f64, c.memcpy_paid as f64),
        "ratio",
    );
    r.metric("proto.ctrl_msgs_per_step", per(c.ctrl_total()), "count");
    r.metric("proto.ctrl_relay_per_step", per(c.ctrl_relay), "count");
    r.metric("link.frames_per_step", per(c.net_frames), "count");
    r.metric("link.bytes_per_step", per(c.net_bytes), "B");
    r.metric(
        "link.frames_per_syscall",
        ratio(c.net_frames as f64, c.net_syscalls as f64),
        "ratio",
    );
    r.metric(
        "link.pool_hit_frac",
        ratio(
            c.net_pool_hits as f64,
            (c.net_pool_hits + c.net_pool_misses) as f64,
        ),
        "ratio",
    );
    r.metric(
        "link.rx_buf_hwm_KiB",
        c.net_rx_buf_hwm as f64 / 1024.0,
        "KiB",
    );
    r.metric("wal.appends_per_step", per(c.wal_appends), "count");
    r.metric("wal.bytes_per_step", per(c.wal_bytes), "B");
    r.metric("reliable.retransmits", c.retransmits as f64, "count");
    r.metric("reliable.timeouts", c.timeouts as f64, "count");
    r.metric("net.reconnects", c.net_reconnects as f64, "count");
    r.metric("net.codec_rejects", c.net_codec_rejects as f64, "count");
}

/// Responses the exporter side handled per step (for the ledger).
pub fn responses(c: &CounterSnapshot) -> u64 {
    c.ctrl(CtrlClass::Response)
}

/// An all-zero counter snapshot to fold sessions into.
pub fn zero_counters() -> CounterSnapshot {
    EngineMetrics::default().snapshot().counters
}

/// Per-call costs of every layer at one workload's sizes.
pub struct Costs {
    copy_from_us: f64,
    copy_into_us: f64,
    wire: WireCost,
    link_payload_us: f64,
    link_ctrl_us: f64,
    wal_append_us: f64,
    reliable: ReliableCost,
    on_export_ns: f64,
    on_response_ns: f64,
}

impl Costs {
    /// Runs every layer's micro-measurement at `shape` and records its
    /// metrics. The WAL and the reliability layer are fed the traffic mix
    /// of `c`, the workload's counters over `steps` steps.
    pub fn measure(
        shape: &Shape,
        scratch: &Path,
        c: &CounterSnapshot,
        steps: f64,
        r: &mut RunResult,
    ) -> Costs {
        let (copy_from_us, copy_into_us) = layout(shape, r);
        let wire = wire_layer(shape, r);
        let (link_payload_us, link_ctrl_us) = link_layer(shape, r);
        let (appends, exports) = journal_mix(c, steps);
        r.note(format!(
            "WAL fed {appends} records per step, {exports} of them exports"
        ));
        let (wal_append_us, _) = wal_layer(scratch, appends, exports, r);
        let reliable = reliable_layer(c, steps, shape.ranks, r);
        let (on_export_ns, on_response_ns) = proto_layer(shape, r);
        time_layer(shape, r);
        Costs {
            copy_from_us,
            copy_into_us,
            wire,
            link_payload_us,
            link_ctrl_us,
            wal_append_us,
            reliable,
            on_export_ns,
            on_response_ns,
        }
    }
}

/// The ledger: how much of one step's wall time the layer calls account
/// for (calls per step, from the counters, times cost per call), and the
/// tracing overhead of the traced sessions. Each ack the program sent
/// closes one sequenced message, so the reliability layer is charged per
/// ack. WAL syncs are not counted by the program, so they stay in the
/// unattributed residual.
pub fn ledger(
    c: &CounterSnapshot,
    steps: f64,
    plain_rate: f64,
    traced_rate: f64,
    k: &Costs,
    r: &mut RunResult,
) {
    let per = |x: u64| ratio(x as f64, steps);
    let payload_frames = per(c.transfers.min(c.net_frames));
    let ctrl_frames = per(c.net_frames) - payload_frames;
    let terms = [
        ("copy_from", per(c.memcpy_paid) * k.copy_from_us),
        ("copy_into", per(c.transfers) * k.copy_into_us),
        ("on_export", per(c.export_calls) * k.on_export_ns / 1e3),
        ("on_response", per(responses(c)) * k.on_response_ns / 1e3),
        ("lock_wait", per(c.lock_wait_ns) / 1e3),
        (
            "wire_payload",
            payload_frames * (k.wire.encode_us + k.wire.crc_us + k.wire.decode_us),
        ),
        (
            "wire_ctrl",
            ctrl_frames * (k.wire.encode_ctrl_ns + k.wire.decode_ctrl_ns) / 1e3,
        ),
        (
            "link",
            payload_frames * k.link_payload_us + ctrl_frames * k.link_ctrl_us,
        ),
        ("wal_append", per(c.wal_appends) * k.wal_append_us),
        (
            "reliable",
            per(c.ctrl(CtrlClass::Ack))
                * (k.reliable.register_ns + k.reliable.receive_ns + k.reliable.on_ack_ns)
                / 1e3,
        ),
    ];
    let step_us = ratio(1e6, plain_rate);
    let attributed: f64 = terms.iter().map(|(_, us)| us).sum();
    let breakdown: Vec<String> = terms
        .iter()
        .map(|(name, us)| format!("{name} {us:.2}"))
        .collect();
    r.note(format!(
        "ledger us/step: step {step_us:.2} = {} + unattributed {:.2}",
        breakdown.join(" + "),
        step_us - attributed
    ));
    r.metric(
        "ledger.unattributed_frac",
        ratio(step_us - attributed, step_us),
        "ratio",
    );
    r.metric(
        "trace.overhead_frac",
        1.0 - ratio(traced_rate, plain_rate),
        "ratio",
    );
}
