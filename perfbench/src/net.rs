//! The socket workloads: one exporting and one importing program, each a
//! `couplink-node` process, coupled over loopback UDS by `run_plan`.
//!
//! Every workload uses REG matching with a tolerance below the export
//! period, so each import matches the export at exactly its own time and
//! every export is transferred. Steps per second is steps divided by the
//! `run_plan` wall time of a session (spawn, handshake, run, drain).

use std::time::{Duration, Instant};

use couplink_layout::Rect;
use couplink_runtime::net::{
    default_node_bin, run_plan, ExportSpec, ImportSpec, NetOptions, NetReport, NodePlan,
};
use couplink_time::MatchPolicy;

use crate::layers::{self, mix, Shape};
use crate::stats::{quantile, ratio, tail_q, trimmed_mean, RunResult};
use crate::Opts;

/// One socket workload.
pub struct NetWorkload {
    name: &'static str,
    /// Ranks in each of the two programs.
    procs: usize,
    /// Grid rows and columns; each rank owns a row block.
    rows: usize,
    cols: usize,
    /// Coupled steps per `run_plan` session.
    session_steps: usize,
    /// Journal every node to a file-backed WAL (`NetOptions::durable`).
    durable: bool,
}

/// Two 2 MiB payload frames per step: the bytes of the wire path.
pub const BULK: NetWorkload = NetWorkload {
    name: "net_bulk",
    procs: 2,
    rows: 1024,
    cols: 512,
    session_steps: 100,
    durable: false,
};

/// Eight ranks a side, 1 KiB pieces: frame count, not bytes. Not gated:
/// its many cross-process wake-ups per step make it swing with the host's
/// load (see the README).
pub const CTRL: NetWorkload = NetWorkload {
    name: "net_ctrl",
    procs: 8,
    rows: 64,
    cols: 16,
    session_steps: 4000,
    durable: false,
};

/// `net_ctrl`'s plan with every node journaling to a `FileWal`. Not gated:
/// its wall time follows the host's fsync and wake-up latency.
pub const DURABLE: NetWorkload = NetWorkload {
    name: "net_durable",
    procs: 8,
    rows: 64,
    cols: 16,
    session_steps: 1500,
    durable: true,
};

/// Steps of the untimed session that verifies every transferred value.
const VERIFY_STEPS: usize = 50;
const MIB: f64 = 1024.0 * 1024.0;

impl NetWorkload {
    fn piece_bytes(&self) -> usize {
        self.rows / self.procs * self.cols * 8
    }

    /// The plan: E0 exports and I0 imports at `t0, t0 + 1, …`.
    fn plan(&self, t0: f64, count: usize, verify: bool, traced: bool) -> NodePlan {
        NodePlan {
            config_text: format!(
                "E0 c0 /bin/e0 {p}\nI0 c0 /bin/i0 {p}\n#\nE0.r I0.m REG 0.25\n",
                p = self.procs
            ),
            grid: (self.rows, self.cols),
            exports: vec![ExportSpec {
                program: "E0".into(),
                region: 0,
                t0,
                dt: 1.0,
                count,
                compute: vec![0.0; self.procs],
            }],
            imports: vec![ImportSpec {
                program: "I0".into(),
                region: 0,
                t0,
                dt: 1.0,
                count,
                compute: 0.0,
                startup: 0.0,
            }],
            // Library defaults: buddy-help on, flat fan-out.
            buddy_help: true,
            hierarchical: false,
            import_timeout_s: 30.0,
            time_scale: 1.0,
            verify_values: verify,
            // Tracing arms the exporter's Figure-5 event stream on rank 0.
            traces: if traced { vec![(0, 0, 0)] } else { Vec::new() },
            chaos: None,
            fault: None,
            wal_dir: None,
            restart: false,
        }
    }

    fn shape(&self, t0: f64) -> Shape {
        let block = Rect::new(0, 0, self.rows / self.procs, self.cols);
        Shape {
            piece: block,
            dest: block,
            policy: MatchPolicy::Reg,
            tol: 0.25,
            t0,
            dt: 1.0,
            import_every: 1,
            import_offset: 0.0,
            ranks: self.procs,
        }
    }
}

/// What one `run_plan` session measured.
struct Session {
    wall: f64,
    rep: NetReport,
    /// Minor page faults of the reaped node processes.
    faults: u64,
}

/// One `run_plan` session, with every correctness check counted into `r`.
fn session(
    w: &NetWorkload,
    t0: f64,
    count: usize,
    verify: bool,
    traced: bool,
    r: &mut RunResult,
) -> Option<Session> {
    let Some(node_bin) = default_node_bin() else {
        r.fail("no couplink-node binary next to the benchmark (build with run.sh)");
        return None;
    };
    let net_opts = NetOptions {
        deadline: Duration::from_secs(120),
        durable: w.durable,
        ..NetOptions::new(node_bin)
    };
    let plan = w.plan(t0, count, verify, traced);
    // Each rank's exports and imports, plus the session's conservation
    // check.
    r.attempt((2 * w.procs * count + 1) as u64);
    let faults0 = layers::minor_faults();
    let start = Instant::now();
    let rep = match run_plan(&plan, &net_opts) {
        Ok(rep) => rep,
        Err(e) => {
            r.fail(format!("{}: run_plan: {e}", w.name));
            return None;
        }
    };
    let wall = start.elapsed().as_secs_f64();
    let faults = layers::minor_faults().saturating_sub(faults0);
    for p in &rep.crashed {
        r.fail(format!("{}: program {p} crashed", w.name));
    }
    for (p, e) in &rep.shutdown_errors {
        r.fail(format!("{}: program {p} shutdown: {e}", w.name));
    }
    for (p, k, e) in &rep.export_errors {
        r.fail(format!("{}: export at program {p} rank {k}: {e}", w.name));
    }
    for (p, k, done, err) in &rep.imports_done {
        if let Some(e) = err {
            r.fail(format!("{}: import at program {p} rank {k}: {e}", w.name));
        } else if *done != count as u64 {
            r.fail(format!(
                "{}: program {p} rank {k} imported {done} of {count}",
                w.name
            ));
        }
    }
    let got = rep.matches.first().map_or(&[][..], Vec::as_slice);
    if got.len() != count {
        r.fail(format!(
            "{}: {} matched timestamps reported, want {count}",
            w.name,
            got.len()
        ));
    }
    for (k, m) in got.iter().enumerate() {
        let want = t0 + k as f64;
        if m.map(|m| m.value()) != Some(want) {
            r.fail(format!("{}: import {k} matched {m:?}, want {want}", w.name));
        }
    }
    let c = &rep.counters;
    let healthy =
        c.net_reconnects == 0 && c.net_codec_rejects == 0 && c.retransmits == 0 && c.timeouts == 0;
    // Conservation holds only on clean sessions; a retransmit or a
    // reconnect is not itself a failure (the reliability counters report
    // them), it only exempts the session from this check.
    if !healthy {
        r.note(format!(
            "{}: unclean session ({} reconnects, {} codec rejects, {} retransmits, \
             {} timeouts): conservation not checked",
            w.name, c.net_reconnects, c.net_codec_rejects, c.retransmits, c.timeouts
        ));
    } else if c.net_rx_frames != c.net_frames || c.net_rx_bytes != c.net_bytes {
        r.fail(format!(
            "{}: tx/rx conservation broken: sent {} frames / {} B, received {} / {} B",
            w.name, c.net_frames, c.net_bytes, c.net_rx_frames, c.net_rx_bytes
        ));
    }
    Some(Session { wall, rep, faults })
}

/// Sessions back to back until `seconds` have passed (at least two
/// slots). Each slot runs one session per entry of `traced`, alternating,
/// so drift in the host hits plain and traced sessions alike, after
/// calling `before_slot`. Returns the sessions of each entry.
fn measure(
    w: &NetWorkload,
    t0: f64,
    seconds: f64,
    traced: &[bool],
    mut before_slot: impl FnMut(&mut RunResult),
    r: &mut RunResult,
) -> Vec<Vec<Session>> {
    let start = Instant::now();
    let mut out: Vec<Vec<Session>> = traced.iter().map(|_| Vec::new()).collect();
    let mut slot = 0;
    while slot < 2 || start.elapsed().as_secs_f64() < seconds {
        before_slot(r);
        for (&tr, sessions) in traced.iter().zip(&mut out) {
            match session(w, t0, w.session_steps, false, tr, r) {
                Some(s) => sessions.push(s),
                None => return out,
            }
        }
        slot += 1;
    }
    out
}

/// Steps per second over all sessions: total steps ÷ total wall time.
fn rate(w: &NetWorkload, sessions: &[Session]) -> f64 {
    let wall: f64 = sessions.iter().map(|s| s.wall).sum();
    ratio((sessions.len() * w.session_steps) as f64, wall)
}

pub fn run(w: &NetWorkload, opts: &Opts) -> RunResult {
    let mut r = RunResult::default();
    // The seed moves the time origin, and with it every payload value
    // (nodes fill cells from the export time).
    let t0 = 1.0 + (mix(opts.seed) % 1000) as f64;
    r.note(format!(
        "{}: seed {} t0 {t0}; {} ranks a side, {}x{} grid, {} B pieces, \
         {}-step sessions, durable {}",
        w.name,
        opts.seed,
        w.procs,
        w.rows,
        w.cols,
        w.piece_bytes(),
        w.session_steps,
        w.durable
    ));
    // One untimed session with the nodes checking every transferred
    // cell; it also warms the page cache before anything is timed.
    session(w, t0, VERIFY_STEPS, true, false, &mut r);
    if opts.trace {
        trace_run(w, opts, t0, &mut r);
    } else {
        // Set-up: a one-step session of the same plan before each measured
        // session, 20%-trimmed mean. Not the median: the orchestrator reaps
        // children on a 10 ms poll, so one-step sessions fall in two modes
        // 10 ms apart and the median would jump between them from run to
        // run.
        let mut setups = Vec::new();
        let sessions = measure(
            w,
            t0,
            opts.seconds,
            &[false],
            |r| setups.extend(session(w, t0, 1, false, false, r).map(|s| s.wall)),
            &mut r,
        )
        .remove(0);
        let setup = trimmed_mean(&setups, 0.2);
        // Per-import times stay inside the importer node. A closed loop
        // with zero compute imports back to back, so a session's steady
        // import interval is its wall time less the one-step session's
        // (spawn, handshake, drain), over its imports: a rate-derived
        // proxy, one sample per session, not a per-call latency.
        let import_ms: Vec<f64> = sessions
            .iter()
            .map(|s| (s.wall - setup) * 1e3 / (w.session_steps - 1) as f64)
            .collect();
        let peaks: Vec<f64> = sessions
            .iter()
            .map(|s| s.rep.counters.buffered_hwm as f64 * w.piece_bytes() as f64 / MIB)
            .collect();
        let rates: Vec<String> = sessions
            .iter()
            .map(|s| format!("{:.0}", w.session_steps as f64 / s.wall))
            .collect();
        r.note(format!(
            "{} sessions steps/s: [{}]",
            w.name,
            rates.join(", ")
        ));
        r.metric("steps_per_s", rate(w, &sessions), "steps/s");
        // The tail slot holds the highest quantile that still has ten
        // sessions beyond it.
        let q = tail_q(import_ms.len());
        r.note(format!(
            "{}: {} session samples; import_ms_p95 is their {q:.3} quantile",
            w.name,
            import_ms.len()
        ));
        r.metric("import_ms_p50", quantile(&import_ms, 0.5), "ms");
        r.metric("import_ms_p95", quantile(&import_ms, q), "ms");
        r.metric("peak_buffered_MiB", trimmed_mean(&peaks, 0.2), "MiB");
        r.metric("setup_s", setup, "s");
    }
    r
}

fn trace_run(w: &NetWorkload, opts: &Opts, t0: f64, r: &mut RunResult) {
    let mut by_mode = measure(w, t0, opts.seconds, &[false, true], |_| {}, r);
    let traced = by_mode.pop().unwrap_or_default();
    let plain = by_mode.pop().unwrap_or_default();
    let faults: u64 = traced.iter().map(|s| s.faults).sum();
    let mut c = layers::zero_counters();
    for s in &traced {
        c.merge_process(&s.rep.counters);
    }
    let steps = (traced.len() * w.session_steps) as f64;
    // Export call times live inside the node processes: not observable
    // from outside, reported as 0.
    r.metric("threaded.export_copy_us_p50", 0.0, "us");
    r.metric("threaded.export_skip_us_p50", 0.0, "us");
    layers::counter_layers(&c, steps, r);
    r.metric("proc.minflt_per_step", ratio(faults as f64, steps), "count");
    r.metric("proc.peak_rss_MiB", layers::peak_rss_mib(), "MiB");
    let costs = layers::Costs::measure(&w.shape(t0), &opts.scratch, &c, steps, r);
    layers::ledger(&c, steps, rate(w, &plain), rate(w, &traced), &costs, r);
}
