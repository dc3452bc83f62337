//! `sched-sweep`: timing-only 1080p runs through `FevesEncoder::new` and
//! `encode_inter_timing` over the seven Fig 6 configurations at SA 32 and
//! one or four references.
//!
//! No pixels are touched: only the LP balancer, DAM/VCM planning and the
//! hetsim virtual clock run. A scheduler or LP change shows only here, and
//! a codec change must leave it unchanged.

use crate::child::self_usage;
use crate::common::{self, Ctx, Outcome};
use crate::stats::{geomean, median, LogHistogram};
use feves_core::prelude::*;
use std::time::Instant;

/// Search area.
pub const SA: u16 = 32;
/// Reference counts swept.
pub const REFS: [usize; 2] = [1, 4];
/// Latency tail reported, per configuration.
pub const TAIL_PCT: f64 = 99.0;
/// Inter-frames skipped before the steady state (initialization and the
/// reference ramp-up).
pub const STEADY_SKIP: usize = 10;
/// Frames re-run from a fresh encoder to check that the virtual clock
/// repeats within a run.
const REPEAT_CHECK: usize = 64;
/// Frames one configuration runs before the sweep moves to the next. The
/// configurations take turns in chunks this long, so each one's host
/// times are sampled over the whole run rather than one stretch of it.
const CHUNK: usize = 500;

/// Inter-frames per configuration in a run of `seconds`: at about 30 µs
/// per timing frame on a 2-core x86-64 host the sweep lasts about
/// `seconds`.
pub fn frames_per_config(seconds: u64) -> usize {
    (seconds as usize * 2500).max(200)
}

/// One configuration of the sweep: (label, platform, config) with the
/// measurement-noise stream drawn from `seed`.
pub fn configs(seed: u64) -> Vec<(String, Platform, EncoderConfig)> {
    let mut out = Vec::new();
    for (name, platform, balancer) in feves_bench::standard_configs() {
        for refs in REFS {
            let mut cfg = feves_bench::hd_config(SA, refs, balancer);
            cfg.noise_seed = seed ^ (out.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            out.push((format!("{name}/{refs}RF"), platform.clone(), cfg));
        }
    }
    out
}

/// What one configuration's timing frames measured. Nothing is kept per
/// frame beyond the first few virtual times, so the process's peak RSS is
/// the encoders', not the benchmark's.
struct Sweep {
    enc: FevesEncoder,
    /// Time of each `FevesEncoder::new` of this configuration, s.
    new_s: Vec<f64>,
    /// Host time of each `encode_inter_timing` call, µs.
    host_us: LogHistogram,
    /// Virtual τtot of the first [`REPEAT_CHECK`] frames, s.
    first_tau: Vec<f64>,
    /// Σ τtot and count over the steady state (after [`STEADY_SKIP`]).
    steady: (f64, usize),
    frames: usize,
}

impl Sweep {
    fn new(enc: FevesEncoder, new_s: f64) -> Self {
        Sweep {
            enc,
            new_s: vec![new_s],
            host_us: LogHistogram::new(),
            first_tau: Vec::with_capacity(REPEAT_CHECK),
            steady: (0.0, 0),
            frames: 0,
        }
    }

    /// Run `n` more timing frames.
    fn run(&mut self, n: usize) {
        for _ in 0..n {
            let t = Instant::now();
            let tau = std::hint::black_box(self.enc.encode_inter_timing()).tau_tot;
            self.host_us.record(t.elapsed().as_secs_f64() * 1e6);
            if self.first_tau.len() < REPEAT_CHECK {
                self.first_tau.push(tau);
            }
            if self.frames >= STEADY_SKIP {
                self.steady.0 += tau;
                self.steady.1 += 1;
            }
            self.frames += 1;
        }
    }

    /// Steady-state virtual fps (`EncodeReport::steady_fps`).
    fn steady_fps(&self) -> f64 {
        self.steady.1 as f64 / self.steady.0
    }
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let configs = configs(ctx.seed);
    let mut out = Outcome {
        attempted: configs.len() as u64,
        ..Outcome::default()
    };
    let frames = frames_per_config(ctx.seconds);

    // Each configuration is built once before the sweep and once more
    // between its chunks, so the set-up median samples the whole run.
    let mut sweeps = Vec::new();
    for config in &configs {
        match build(config) {
            (s, Ok(e)) => sweeps.push((config, Sweep::new(e, s))),
            (_, Err(e)) => out.fail(format!("{}: {e}", config.0)),
        }
    }
    let mut cpu = 0.0;
    for start in (0..frames).step_by(CHUNK) {
        for (config, sweep) in &mut sweeps {
            sweep.new_s.push(build(config).0);
            let cpu0 = self_usage().cpu_s();
            sweep.run(CHUNK.min(frames - start));
            cpu += self_usage().cpu_s() - cpu0;
        }
    }
    let setup_s: f64 = sweeps.iter().map(|(_, s)| median(&s.new_s)).sum();

    let (mut p50_us, mut tail_us, mut calls) = (Vec::new(), Vec::new(), 0);
    let mut vfps = Vec::new();
    let mut digest = String::new();
    for ((label, platform, cfg), sweep) in &sweeps {
        p50_us.push(sweep.host_us.percentile(50.0));
        tail_us.push(sweep.host_us.percentile(TAIL_PCT));
        calls += sweep.host_us.len();
        let fps = sweep.steady_fps();
        digest.push_str(&format!("{fps:.17e};"));
        if !(fps.is_finite() && fps > 0.0) {
            out.fail(format!("{label}: virtual fps {fps}"));
            continue;
        }
        if label == "SysHK/1RF" {
            if fps < 25.0 {
                out.fail(format!(
                    "{label}: {fps:.2} virtual fps is below real time (25)"
                ));
                continue;
            }
            if let Err(e) = repeats(platform, cfg, &sweep.first_tau) {
                out.fail(format!("{label}: {e}"));
                continue;
            }
        }
        vfps.push(fps);
    }
    let exe = std::env::current_exe().unwrap_or_default();
    let key = format!(
        "sched-sweep/{}/seed{}/frames{frames}",
        common::binary_id(&exe),
        ctx.seed
    );
    let digest = format!("{:016x}", feves_ft::ckpt::fnv1a64(digest.as_bytes()));
    if let Err(e) = common::check_digest(&ctx.digests, &key, &digest) {
        out.fail(e);
    }
    // Configurations differ several-fold in cost, so each is summarized
    // on its own and the summaries are combined by geometric mean.
    out.metric("setup_s", setup_s, "s");
    out.metric("latency_ms_p50", geomean(&p50_us) / 1e3, "ms");
    out.metric("latency_ms_tail", geomean(&tail_us) / 1e3, "ms");
    out.metric("peak_rss_mb", self_usage().peak_rss_mb(), "MB");
    out.metric("cpu_ms_per_item", cpu * 1e3 / calls.max(1) as f64, "ms");
    out.info("virtual_fps", geomean(&vfps), "fps");
    out.info("sched_iter_us_p50", geomean(&p50_us), "us");
    out.info("sched_iter_us_p99", geomean(&tail_us), "us");
    out.info("iterations", calls as f64, "count");
    out
}

/// Build an encoder of `config`; returns the time `FevesEncoder::new`
/// took, s, with its result.
fn build(
    (_, platform, cfg): &(String, Platform, EncoderConfig),
) -> (f64, Result<FevesEncoder, FevesError>) {
    let (platform, cfg) = (platform.clone(), cfg.clone());
    let t = Instant::now();
    let enc = FevesEncoder::new(platform, cfg);
    (t.elapsed().as_secs_f64(), enc)
}

/// A fresh encoder of the same configuration reproduces the first
/// frames' virtual times exactly.
fn repeats(platform: &Platform, cfg: &EncoderConfig, tau: &[f64]) -> Result<(), String> {
    let mut enc = FevesEncoder::new(platform.clone(), cfg.clone()).map_err(|e| e.to_string())?;
    for (i, &first) in tau.iter().enumerate() {
        let again = enc.encode_inter_timing().tau_tot;
        if again.to_bits() != first.to_bits() {
            return Err(format!(
                "inter-frame {}: virtual time {first} then {again} on a fresh encoder",
                i + 1
            ));
        }
    }
    Ok(())
}
