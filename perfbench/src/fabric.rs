//! `fabric_buddy`: the paper's §5 micro-benchmark on the in-process
//! `Fabric`, the path `couplink::Session` uses.
//!
//! Program F has 4 ranks on 2×2 blocks of a 1024×1024 f64 grid (2 MiB
//! pieces); program U has 1 rank (8 MiB imports). REGL matching with
//! tolerance 2.5, exports at t = 1.6, 2.6, …, imports at t = 20, 40, ….
//! One exporter thread exports all four F ranks, a slow rank p_s [`LAG`]
//! steps behind the others; one thread imports. Closed loop: the importer
//! asks for the next step only after the previous import returned, and
//! the exporter thread never waits for it (unbounded buffers).
//!
//! Which rank is slow sets the regime: with p_s = 3 (exported last in
//! each step) a step is about 20% slower than with p_s = 0 or 1. The seed
//! picks the first p_s and every session moves it to the next rank, so
//! each run covers every regime equally and reports them per p_s.

use std::sync::Barrier;
use std::time::Instant;

use couplink_layout::{Decomposition, Extent2, LocalArray, Rect};
use couplink_metrics::CounterSnapshot;
use couplink_runtime::{ActionKind, ExportAccess, Fabric, FabricOptions, Topology};
use couplink_time::{ts, MatchPolicy, Tolerance};

use crate::layers::{self, mix, Shape};
use crate::stats::{median, quantile, ratio, tail_q, trimmed_mean, RunResult};
use crate::Opts;

const GRID: usize = 1024;
const RANKS: usize = 4;
const T0: f64 = 1.6;
const DT: f64 = 1.0;
const TOL: f64 = 2.5;
/// Imports ask for t = 20, 40, …: one import per this many export steps.
const IMPORT_PERIOD: f64 = 20.0;
/// How many steps the slow rank runs behind the other three.
const LAG: usize = 3;
/// Distinct payloads per rank, cycled by step (coprime to the import
/// period, so consecutive imports carry different values).
const VARIANTS: usize = 3;
/// Export steps per fabric session (50 imports).
const SESSION_STEPS: usize = 1000;
/// Steps of the untimed value-verification session.
const VERIFY_STEPS: usize = 200;
/// Fabrics built for `setup_s` before each session (about 0.1 ms each),
/// so a 30 s run times about 1000 spread over the whole run.
const SETUP_PER_SLOT: usize = 40;
const MIB: f64 = 1024.0 * 1024.0;

fn t_of(k: usize) -> f64 {
    T0 + k as f64 * DT
}

/// The export a REGL import at `x` must match: the latest export at or
/// below `x` (always within the tolerance: exports are 1.0 apart).
fn expected_match(x: f64) -> f64 {
    t_of(((x - T0) / DT).floor() as usize)
}

fn extent() -> Extent2 {
    Extent2::new(GRID, GRID)
}

fn topology() -> Topology {
    let exp = Decomposition::block_2d(extent(), 2, 2).expect("2x2 blocks of the grid");
    let imp = Decomposition::row_block(extent(), 1).expect("one importer rank");
    let tol = Tolerance::new(TOL).expect("valid tolerance");
    Topology::pair(exp, imp, MatchPolicy::RegL, tol).expect("valid pair topology")
}

/// The generated inputs: every rank's payload variants and the slow rank
/// of the first session.
struct Inputs {
    seed: u64,
    first_slow: usize,
    pieces: Vec<Vec<LocalArray>>,
}

/// The value of cell `(row, col)` in payload variant `v`: an integer
/// below 2^53 so it survives every copy exactly.
fn cell(seed: u64, v: usize, row: usize, col: usize) -> f64 {
    (mix(seed ^ ((v as u64) << 48) ^ (row * GRID + col) as u64) >> 11) as f64
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let decomp = Decomposition::block_2d(extent(), 2, 2).expect("2x2 blocks");
        let pieces = (0..RANKS)
            .map(|rank| {
                (0..VARIANTS)
                    .map(|v| LocalArray::from_fn(decomp.owned(rank), |r, c| cell(seed, v, r, c)))
                    .collect()
            })
            .collect();
        Inputs {
            seed,
            first_slow: (mix(seed) % RANKS as u64) as usize,
            pieces,
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// End-to-end timing only (imports timed, exports not).
    Plain,
    /// Every export call timed too, and page faults counted.
    Traced,
    /// Untimed: every imported array compared against the generator.
    Verify,
}

/// What one fabric session measured.
struct Session {
    slow: usize,
    wall: f64,
    steps: usize,
    import_s: Vec<f64>,
    copy_us: Vec<f64>,
    skip_us: Vec<f64>,
    counters: CounterSnapshot,
    minflt: u64,
}

/// Exports `steps` steps on all ranks, `slow` lagging, while the importer
/// thread imports every period; returns the session's timings and
/// counters.
fn session(
    inp: &Inputs,
    slow: usize,
    steps: usize,
    mode: Mode,
    r: &mut RunResult,
) -> Option<Session> {
    let mut fabric = Fabric::new(topology(), FabricOptions::default());
    let mut exps: Vec<ExportAccess> = (0..RANKS).map(|k| fabric.take_export(0, k, 0)).collect();
    let mut imp = fabric.take_import(1, 0, 0);
    let n_imports = (t_of(steps - 1) / IMPORT_PERIOD).floor() as usize;
    // The last import needs an export strictly past it to be decided.
    let n_imports = if n_imports as f64 * IMPORT_PERIOD >= t_of(steps - 1) {
        n_imports - 1
    } else {
        n_imports
    };
    r.attempt((steps * RANKS + n_imports) as u64);
    let barrier = Barrier::new(2);
    let faults0 = layers::minor_faults();
    let mut copy_us = Vec::new();
    let mut skip_us = Vec::new();
    let mut export_errors = Vec::new();
    let (wall, (import_s, import_errors)) = std::thread::scope(|s| {
        let imp = &mut imp;
        let barrier = &barrier;
        let importer = s.spawn(move || {
            let mut dest = LocalArray::zeros(Rect::new(0, 0, GRID, GRID));
            let mut times = Vec::with_capacity(n_imports);
            let mut errors = Vec::new();
            barrier.wait();
            for j in 1..=n_imports {
                let x = j as f64 * IMPORT_PERIOD;
                let t = Instant::now();
                let got = imp.import(ts(x), &mut dest);
                times.push(t.elapsed().as_secs_f64());
                match got {
                    Ok(Some(m)) if m.value() == expected_match(x) => {
                        if mode == Mode::Verify {
                            let k = ((m.value() - T0) / DT).round() as usize;
                            let bad = (0..GRID * GRID)
                                .filter(|&i| {
                                    let (row, col) = (i / GRID, i % GRID);
                                    dest.get(row, col) != cell(inp.seed, k % VARIANTS, row, col)
                                })
                                .count();
                            if bad > 0 {
                                errors.push(format!("import at {x}: {bad} cells differ"));
                            }
                        }
                    }
                    Ok(Some(m)) => errors.push(format!(
                        "import at {x} matched {}, want {}",
                        m.value(),
                        expected_match(x)
                    )),
                    Ok(None) => errors.push(format!("import at {x} found no match")),
                    Err(e) => {
                        errors.push(format!("import at {x}: {e}"));
                        break;
                    }
                }
            }
            (times, errors)
        });
        barrier.wait();
        let start = Instant::now();
        'steps: for i in 0..steps + LAG {
            for (rank, h) in exps.iter_mut().enumerate() {
                let k = if rank == slow {
                    i.checked_sub(LAG)
                } else {
                    Some(i)
                };
                let Some(k) = k.filter(|&k| k < steps) else {
                    continue;
                };
                let piece = &inp.pieces[rank][k % VARIANTS];
                let t = (mode == Mode::Traced).then(Instant::now);
                match h.export(ts(t_of(k)), piece) {
                    Ok(out) if t.is_some() => {
                        let us = t.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e6);
                        match out[0].action {
                            ActionKind::Skip => skip_us.push(us),
                            ActionKind::Copy | ActionKind::CopySend => copy_us.push(us),
                        }
                    }
                    Ok(_) => {}
                    Err(e) => {
                        export_errors.push(format!("export rank {rank} step {k}: {e}"));
                        break 'steps;
                    }
                }
            }
        }
        let imported = importer.join().expect("importer thread panicked");
        (start.elapsed().as_secs_f64(), imported)
    });
    let minflt = layers::minor_faults().saturating_sub(faults0);
    drop(exps);
    drop(imp);
    for e in export_errors.into_iter().chain(import_errors) {
        r.fail(e);
    }
    match fabric.shutdown() {
        Ok(report) => Some(Session {
            slow,
            wall,
            steps,
            import_s,
            copy_us,
            skip_us,
            counters: report.metrics.counters,
            minflt,
        }),
        Err(e) => {
            r.fail(format!("fabric shutdown: {e}"));
            None
        }
    }
}

/// Sessions back to back until `seconds` have passed, in whole rounds of
/// the slow rank through every rank. Each slot runs one session per mode
/// in `modes`, alternating, so drift in the host hits every mode alike,
/// after calling `before_slot`. Returns the sessions of each mode.
fn measure(
    inp: &Inputs,
    seconds: f64,
    modes: &[Mode],
    mut before_slot: impl FnMut(&mut RunResult),
    r: &mut RunResult,
) -> Vec<Vec<Session>> {
    let start = Instant::now();
    let mut out: Vec<Vec<Session>> = modes.iter().map(|_| Vec::new()).collect();
    let mut slot = 0;
    while slot == 0 || slot % RANKS != 0 || start.elapsed().as_secs_f64() < seconds {
        before_slot(r);
        let slow = (inp.first_slow + slot) % RANKS;
        for (&mode, sessions) in modes.iter().zip(&mut out) {
            match session(inp, slow, SESSION_STEPS, mode, r) {
                Some(s) => sessions.push(s),
                None => return out,
            }
        }
        slot += 1;
    }
    out
}

/// Steps per second over all sessions: total steps ÷ total wall time.
fn rate(sessions: &[Session]) -> f64 {
    let steps: usize = sessions.iter().map(|s| s.steps).sum();
    ratio(steps as f64, sessions.iter().map(|s| s.wall).sum())
}

/// Appends to `xs` the wall times of `reps` runs of `Fabric::new` plus
/// taking every handle (each fabric shut down untimed).
fn time_setups(reps: usize, xs: &mut Vec<f64>, r: &mut RunResult) {
    for _ in 0..reps {
        let topo = topology();
        let t = Instant::now();
        let mut fabric = Fabric::new(topo, FabricOptions::default());
        let exps: Vec<ExportAccess> = (0..RANKS).map(|k| fabric.take_export(0, k, 0)).collect();
        let imp = fabric.take_import(1, 0, 0);
        xs.push(t.elapsed().as_secs_f64());
        drop((exps, imp));
        r.attempt(1);
        if let Err(e) = fabric.shutdown() {
            r.fail(format!("set-up fabric shutdown: {e}"));
        }
    }
}

/// Reports the regimes: each session's rate, and the median per slow rank.
fn regime_note(label: &str, sessions: &[Session], r: &mut RunResult) {
    let rates: Vec<String> = sessions
        .iter()
        .map(|s| format!("{:.0}", s.steps as f64 / s.wall))
        .collect();
    r.note(format!(
        "fabric_buddy {label} sessions steps/s: [{}]",
        rates.join(", ")
    ));
    let by_slow: Vec<String> = (0..RANKS)
        .map(|p| {
            let xs: Vec<f64> = sessions
                .iter()
                .filter(|s| s.slow == p)
                .map(|s| s.steps as f64 / s.wall)
                .collect();
            format!("p_s={p}: {:.0}", median(&xs))
        })
        .collect();
    r.note(format!(
        "fabric_buddy {label} median steps/s by slow rank: {}",
        by_slow.join(", ")
    ));
}

pub fn run(opts: &Opts) -> RunResult {
    let mut r = RunResult::default();
    let inp = Inputs::generate(opts.seed);
    let piece_mib = (GRID * GRID / RANKS * 8) as f64 / MIB;
    r.note(format!(
        "fabric_buddy: seed {} first slow rank p_s={} lag {LAG}; {SESSION_STEPS}-step \
         sessions, piece {} MiB, import {} MiB",
        opts.seed,
        inp.first_slow,
        piece_mib,
        piece_mib * RANKS as f64
    ));
    // One untimed pass that checks every imported value; it also warms
    // the allocator and the page cache before anything is timed.
    session(&inp, inp.first_slow, VERIFY_STEPS, Mode::Verify, &mut r);
    if opts.trace {
        trace_run(&inp, opts, &mut r);
    } else {
        // Set-up is timed in batches between the sessions, so the median
        // covers the whole run rather than one moment of it.
        let mut setups = Vec::new();
        let sessions = measure(
            &inp,
            opts.seconds,
            &[Mode::Plain],
            |r| time_setups(SETUP_PER_SLOT, &mut setups, r),
            &mut r,
        )
        .remove(0);
        regime_note("plain", &sessions, &mut r);
        let imports: Vec<f64> = sessions.iter().flat_map(|s| s.import_s.clone()).collect();
        let peaks: Vec<f64> = sessions
            .iter()
            .map(|s| s.counters.buffered_hwm as f64 * piece_mib)
            .collect();
        let hwms: Vec<String> = sessions
            .iter()
            .map(|s| s.counters.buffered_hwm.to_string())
            .collect();
        r.note(format!(
            "fabric_buddy sessions buffered_hwm: [{}]",
            hwms.join(", ")
        ));
        let q = tail_q(imports.len());
        r.note(format!(
            "fabric_buddy: {} imports timed; import_ms_p95 is their {q:.3} quantile",
            imports.len()
        ));
        r.metric("steps_per_s", rate(&sessions), "steps/s");
        r.metric("import_ms_p50", quantile(&imports, 0.5) * 1e3, "ms");
        r.metric("import_ms_p95", quantile(&imports, q) * 1e3, "ms");
        // A trimmed mean: a stall of the importer thread now and then lets
        // the exporter run far ahead, and that session's peak is an outlier.
        r.metric("peak_buffered_MiB", trimmed_mean(&peaks, 0.2), "MiB");
        r.metric("setup_s", median(&setups), "s");
    }
    r
}

fn trace_run(inp: &Inputs, opts: &Opts, r: &mut RunResult) {
    let mut by_mode = measure(inp, opts.seconds, &[Mode::Plain, Mode::Traced], |_| {}, r);
    let traced = by_mode.pop().unwrap_or_default();
    let plain = by_mode.pop().unwrap_or_default();
    regime_note("plain", &plain, r);
    regime_note("traced", &traced, r);
    let mut c = layers::zero_counters();
    for s in &traced {
        c.merge_process(&s.counters);
    }
    let steps: f64 = traced.iter().map(|s| s.steps as f64).sum();
    let copy_us: Vec<f64> = traced.iter().flat_map(|s| s.copy_us.clone()).collect();
    let skip_us: Vec<f64> = traced.iter().flat_map(|s| s.skip_us.clone()).collect();
    let faults: Vec<String> = traced
        .iter()
        .map(|s| format!("{:.0}", s.minflt as f64 / s.steps as f64))
        .collect();
    r.note(format!(
        "fabric_buddy traced sessions minflt/step: [{}]",
        faults.join(", ")
    ));
    r.metric("threaded.export_copy_us_p50", median(&copy_us), "us");
    r.metric("threaded.export_skip_us_p50", median(&skip_us), "us");
    layers::counter_layers(&c, steps, r);
    let minflt: u64 = traced.iter().map(|s| s.minflt).sum();
    r.metric("proc.minflt_per_step", ratio(minflt as f64, steps), "count");
    r.metric("proc.peak_rss_MiB", layers::peak_rss_mib(), "MiB");
    let shape = Shape {
        piece: Decomposition::block_2d(extent(), 2, 2)
            .expect("2x2 blocks")
            .owned(0),
        dest: Rect::new(0, 0, GRID, GRID),
        policy: MatchPolicy::RegL,
        tol: TOL,
        t0: T0,
        dt: DT,
        import_every: IMPORT_PERIOD as usize,
        import_offset: IMPORT_PERIOD - T0,
        ranks: RANKS,
    };
    let plain_rate = rate(&plain);
    let costs = layers::Costs::measure(&shape, &opts.scratch, &c, steps, r);
    layers::ledger(&c, steps, plain_rate, rate(&traced), &costs, r);
}
