//! The traced run (`--trace 1`): per-layer metrics, timed around the calls
//! this benchmark makes into each crate and kept as in-memory spans that
//! are written out once at the end.
//!
//! Every traced run prints every per-layer metric, so it measures all
//! layers, each on the inputs and settings of the workload that exercises
//! it:
//!
//! - `video`, `codec`, `core` (frame path) on `encode-720p` input;
//! - `core` (checkpoint), `serve`, `ft`, `obs` on `farm-qcif` jobs;
//! - `sched`/`lp`, `hetsim`, `core` (planning) on the `sched-sweep`
//!   SysHK configuration.
//!
//! The codec replay encodes each frame in-process with
//! `FevesEncoder::encode_frame`, then re-runs the reference entry point of
//! every stage on the same frame and references, one call per stage on
//! one thread, and checks that the replay's reconstruction equals the
//! product's byte for byte, so the stage times are times of the product's
//! own work.

use crate::child;
use crate::common::{self, Ctx, Outcome, QP};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::{encode, farm, sched};
use feves_codec::inter_loop::ReferenceStore;
use feves_codec::types::{EncodeParams, SearchArea};
use feves_core::prelude::*;
use feves_core::CheckpointManager;
use feves_obs::{Bucket, CriticalReport, NoopRecorder};
use feves_sched::{BalanceInput, FevesBalancer, LoadBalancer};
use feves_video::geometry::RowRange;
use feves_video::plane::Plane;
use feves_video::y4m::{Y4mHeader, Y4mReader, Y4mWriter};
use std::io::{BufReader, BufWriter};
use std::time::Instant;

/// Codec stages of a P-frame, in product order, with their span names.
const P_STAGES: [&str; 9] = [
    "codec.interp",
    "codec.me",
    "codec.sme",
    "codec.mc",
    "codec.tq",
    "codec.itq",
    "codec.dbl",
    "codec.chroma",
    "codec.entropy",
];
/// Checkpoint write/restore cycles timed per run.
const CKPT_CYCLES: usize = 8;
/// Frames encoded before the checkpoint cycles.
const CKPT_AT: usize = 8;
/// Timing frames of the scheduler section.
const SCHED_FRAMES: usize = 2000;

/// Run every section; `workload` names the spans file.
pub fn run(ctx: &Ctx, workload: &str) -> Outcome {
    let mut spans = Spans::new();
    let mut out = Outcome {
        attempted: 3,
        ..Outcome::default()
    };
    if let Err(e) = codec_section(ctx, &mut spans, &mut out) {
        out.fail(format!("codec section: {e}"));
    }
    if let Err(e) = farm_section(ctx, &mut spans, &mut out) {
        out.fail(format!("farm section: {e}"));
    }
    if let Err(e) = sched_section(ctx, &mut spans, &mut out) {
        out.fail(format!("sched section: {e}"));
    }
    let path = ctx
        .trace_dir
        .join(format!("{workload}-seed{}.spans.jsonl", ctx.seed));
    if let Err(e) = std::fs::write(&path, spans.to_jsonl()) {
        out.errors.push(format!("{}: {e}", path.display()));
    }
    out
}

/// `video`, `codec` and the `core` frame path on `encode-720p` input.
fn codec_section(ctx: &Ctx, spans: &mut Spans, out: &mut Outcome) -> Result<(), String> {
    let p = (ctx.seconds as usize / 5).clamp(3, 12);
    let frames = common::synth_frames(encode::RES, ctx.seed, 1 + p);

    // video: write the input, then read it back.
    let input = ctx.dir.join("layers-720p.y4m");
    {
        let file = std::fs::File::create(&input).map_err(|e| e.to_string())?;
        let header = Y4mHeader {
            resolution: encode::RES,
            fps: (25, 1),
        };
        let mut w = Y4mWriter::new(BufWriter::new(file), header);
        for f in &frames {
            spans
                .time("video.write_frame", None, || w.write_frame(f))
                .0
                .map_err(|e| e.to_string())?;
        }
        w.finish().map_err(|e| e.to_string())?;
    }
    let file = std::fs::File::open(&input).map_err(|e| e.to_string())?;
    let mut r = Y4mReader::new(BufReader::new(file)).map_err(|e| e.to_string())?;
    for f in &frames {
        let back = spans.time("video.read_frame", None, || r.read_frame()).0;
        match back {
            Ok(Some(b)) if b.y() == f.y() && b.u() == f.u() && b.v() == f.v() => {}
            _ => return Err("a frame read back differs from the one written".into()),
        }
    }

    // The product's session on the same input: its per-frame wall time.
    let session_out = ctx.dir.join("layers-720p-out.y4m");
    let done = child::run(
        &mut encode::encode_cmd(&ctx.feves, &input, &session_out),
        ctx.deadline,
    )
    .map_err(|e| e.to_string())?;
    if !done.ok() {
        return Err(format!("feves encode: {}", done.stderr_tail()));
    }
    let frame_ms_p50 = median(&encode::EncodeLog::parse(&done.out)?.p_gaps_ms());

    // In-process encode, then the stage replay on the same frame.
    let (platform, cfg) = common::cli_config(encode::RES, encode::SA, encode::REFS);
    let mut enc = FevesEncoder::new(platform, cfg).map_err(|e| e.to_string())?;
    let mut store = ReferenceStore::new(encode::REFS);
    let mut pending: Option<(Plane<u8>, Plane<u8>, Plane<u8>)> = None;
    let (mut encode_ms, mut stage_sum, mut nonzero) = (Vec::new(), Vec::new(), Vec::new());
    for (i, f) in frames.iter().enumerate() {
        let (rep, fs) = spans.time("core.encode_frame", None, || enc.encode_frame(f));
        let cf = f.y();
        let (mb_cols, mb_rows) = (f.mb_cols(), f.mb_rows());
        let recon = match pending.take() {
            None => {
                let intra = spans
                    .time("codec.intra", Some(fs), || {
                        feves_codec::intra::encode_intra_frame(cf, QP - 1)
                    })
                    .0;
                let chroma = feves_codec::chroma::encode_chroma_intra(
                    f.u(),
                    f.v(),
                    mb_cols,
                    mb_rows,
                    QP - 1,
                );
                (intra.recon, chroma.recon_u, chroma.recon_v)
            }
            Some((ry, ru, rv)) => {
                let sf = spans
                    .time("codec.interp", Some(fs), || {
                        feves_codec::interp::interpolate(&ry)
                    })
                    .0;
                store.push_yuv(ry, sf, ru, rv);
                let rfs = store.rf_planes();
                let sfs = store.sfs();
                let params = EncodeParams {
                    search_area: SearchArea(encode::SA),
                    n_ref: i.min(encode::REFS),
                    qp: QP,
                    qp_intra: QP - 1,
                };
                let all = RowRange::new(0, mb_rows);
                let mut me = feves_codec::me::MeField::new(mb_cols, mb_rows);
                spans.time("codec.me", Some(fs), || {
                    feves_codec::me::motion_estimate_rows(cf, &rfs, &params, all, me.rows_mut(all))
                });
                let mut sme = feves_codec::sme::SmeField::new(mb_cols, mb_rows);
                spans.time("codec.sme", Some(fs), || {
                    feves_codec::sme::sme_rows(cf, &sfs, me.rows(all), all, sme.rows_mut(all))
                });
                let mut modes = feves_codec::mc::ModeField::new(mb_cols, mb_rows);
                let mut pred: Plane<u8> = Plane::new(cf.width(), cf.height());
                let mut residual: Plane<i16> = Plane::new(cf.width(), cf.height());
                spans.time("codec.mc", Some(fs), || {
                    feves_codec::mc::mc_rows(
                        cf,
                        &sfs,
                        sme.rows(all),
                        QP,
                        all,
                        &mut modes,
                        &mut pred,
                        &mut residual,
                    )
                });
                let mut coeffs = feves_codec::recon::CoeffField::new(mb_cols, mb_rows);
                spans.time("codec.tq", Some(fs), || {
                    feves_codec::recon::tq_rows(&residual, QP, false, all, &mut coeffs)
                });
                let mut recon: Plane<u8> = Plane::new(cf.width(), cf.height());
                spans.time("codec.itq", Some(fs), || {
                    feves_codec::recon::itq_recon_rows(&coeffs, &pred, QP, all, &mut recon)
                });
                spans.time("codec.dbl", Some(fs), || {
                    feves_codec::dbl::deblock_frame(&mut recon, &modes, &coeffs, QP)
                });
                let (refs_u, refs_v) = store
                    .chroma_planes()
                    .ok_or("replay references carry chroma")?;
                let n_refs = refs_u.len().min(params.n_ref);
                let chroma = spans
                    .time("codec.chroma", Some(fs), || {
                        feves_codec::chroma::encode_chroma_inter(
                            f.u(),
                            f.v(),
                            &refs_u[..n_refs],
                            &refs_v[..n_refs],
                            &modes,
                            QP,
                        )
                    })
                    .0;
                let (_, bits) = spans
                    .time("codec.entropy", Some(fs), || {
                        feves_codec::entropy::encode_frame_yuv(&modes, &coeffs, &chroma.coeffs, QP)
                    })
                    .0;
                if rep.bits != Some(bits) {
                    return Err(format!(
                        "frame {i}: replay coded {bits} bits, product {:?}",
                        rep.bits
                    ));
                }
                nonzero.push(coeffs.nonzero_levels() as f64);
                encode_ms.push(spans.ms("core.encode_frame")[i]);
                stage_sum.push(P_STAGES.iter().map(|s| spans.child_ms(fs, s)).sum::<f64>());
                (recon, chroma.recon_u, chroma.recon_v)
            }
        };
        let (py, pu, pv) = enc
            .last_reconstruction_yuv()
            .ok_or("functional encode produced no reconstruction")?;
        if &recon.0 != py || &recon.1 != pu || &recon.2 != pv {
            return Err(format!(
                "frame {i}: replay reconstruction differs from the product's"
            ));
        }
        pending = Some(recon);
    }
    let stage_p50 = median(&stage_sum);
    out.metric("codec.intra_ms", median(&spans.ms("codec.intra")), "ms");
    for s in P_STAGES {
        out.metric(&format!("{s}_ms"), median(&spans.ms(s)), "ms");
    }
    out.metric("codec.stage_sum_ms", stage_p50, "ms");
    let mbs = (encode::RES.width / 16 * encode::RES.height / 16) as f64;
    let sa = 2.0 * f64::from(encode::SA);
    out.metric(
        "codec.me_candidates",
        sa * sa * encode::REFS as f64 * mbs,
        "count",
    );
    let sf_bytes = 16 * encode::RES.width * encode::RES.height * encode::REFS;
    out.metric("codec.sf_mb", sf_bytes as f64 / 1e6, "MB");
    out.metric("codec.nonzero_levels", median(&nonzero), "count");
    out.metric(
        "video.read_frame_ms",
        median(&spans.ms("video.read_frame")),
        "ms",
    );
    out.metric(
        "video.write_frame_ms",
        median(&spans.ms("video.write_frame")),
        "ms",
    );
    let encode_p50 = median(&encode_ms);
    out.metric("core.encode_frame_ms", encode_p50, "ms");
    out.metric("core.parallel_gain", stage_p50 / frame_ms_p50, "ratio");
    out.metric("core.session_overhead_ms", frame_ms_p50 - encode_p50, "ms");
    out.info("frame_ms_p50", frame_ms_p50, "ms");
    Ok(())
}

/// `core` checkpoints, `serve`, `ft` and `obs` on `farm-qcif` jobs.
fn farm_section(ctx: &Ctx, spans: &mut Spans, out: &mut Outcome) -> Result<(), String> {
    checkpoint_cycles(ctx, spans, out)?;

    let n = (ctx.seconds as usize * 4 / 5).clamp(8, 48);
    let dir_plain = ctx.dir.join("layers-farm");
    let dir_traced = ctx.dir.join("layers-farm-traced");
    let plain_plan = farm::plan(&dir_plain, ctx.seed, n)?;
    let traced_plan = farm::plan(&dir_traced, ctx.seed, n)?;
    let plain = farm::serve(ctx, &plain_plan, &dir_plain.join("spool"), None);
    let trace_log = dir_traced.join("farm-trace.jsonl");
    let traced = farm::serve(
        ctx,
        &traced_plan,
        &dir_traced.join("spool"),
        Some(&trace_log),
    );
    let (refs, walls) = farm::standalone(ctx, &plain_plan, &dir_plain)?;
    for (plan, run) in [(&plain_plan, &plain), (&traced_plan, &traced)] {
        if let Some(e) = run.errors.first() {
            return Err(e.clone());
        }
        for (job, done) in plan.jobs.iter().zip(&run.done) {
            let start = Instant::now();
            let verify_ms = farm::check_job(job, done, &refs[job.input])?;
            spans.push("ft.verify", None, start, verify_ms * 1e3);
        }
    }
    let retries: u64 = plain
        .done
        .iter()
        .flatten()
        .map(|d| d.attempts.saturating_sub(1))
        .sum();
    let p50 = |r: &farm::FarmRun| median(&r.job_ms.iter().flatten().copied().collect::<Vec<_>>());
    let (plain_ms, traced_ms) = (p50(&plain), p50(&traced));
    let standalone_s = median(&walls);
    let text = std::fs::read_to_string(&trace_log).map_err(|e| e.to_string())?;
    let log = feves_obs::trace::TraceLog::parse_jsonl(&text)?;
    let report = CriticalReport::from_log(&log)?;
    if report.jobs.len() != n {
        return Err(format!(
            "trace log covers {} of {n} jobs",
            report.jobs.len()
        ));
    }
    let bucket = |b: Bucket| {
        median(
            &report
                .jobs
                .iter()
                .map(|j| j.bucket_us(b) / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let submits: Vec<f64> = plain
        .submit_ms
        .iter()
        .chain(&traced.submit_ms)
        .copied()
        .collect();
    out.metric("serve.submit_ms", median(&submits), "ms");
    out.metric("serve.standalone_job_s", standalone_s, "s");
    out.metric("serve.overhead_s", plain_ms / 1e3 - standalone_s, "s");
    out.metric("serve.retries", retries as f64, "count");
    out.metric("serve.queue_ms", bucket(Bucket::Queue), "ms");
    out.metric("serve.admission_ms", bucket(Bucket::Admission), "ms");
    out.metric("serve.kernel_ms", bucket(Bucket::Kernel), "ms");
    out.metric("serve.checkpoint_ms", bucket(Bucket::Checkpoint), "ms");
    out.metric("serve.drain_ms", bucket(Bucket::Drain), "ms");
    out.metric("ft.verify_ms", median(&spans.ms("ft.verify")), "ms");
    out.metric(
        "obs.trace_overhead_pct",
        100.0 * (traced_ms - plain_ms) / plain_ms,
        "%",
    );
    out.info("job_s_p50", plain_ms / 1e3, "s");
    out.info(
        "loadgen.late_ms_max",
        plain.late_ms_max.max(traced.late_ms_max),
        "ms",
    );
    Ok(())
}

/// Snapshot, commit, load and restore a farm job's encoder several times;
/// the restored encoder must encode the next frame as the original does.
fn checkpoint_cycles(ctx: &Ctx, spans: &mut Spans, out: &mut Outcome) -> Result<(), String> {
    let frames = common::synth_frames(farm::RES, ctx.seed.wrapping_mul(31), farm::FRAMES);
    let (platform, cfg) = common::cli_config(farm::RES, farm::SA, farm::REFS);
    let mut enc = FevesEncoder::new(platform.clone(), cfg.clone()).map_err(|e| e.to_string())?;
    for f in &frames[..CKPT_AT] {
        enc.encode_frame(f);
    }
    let dir = ctx.dir.join("layers-ckpt");
    let mgr = CheckpointManager::new(&dir, 2);
    let mut resume = ResumeContext {
        input: "in.y4m".into(),
        output: "out.y4m".into(),
        platform: "syshk".into(),
        platform_json: None,
        sa: farm::SA,
        refs: farm::REFS,
        qp: QP,
        balancer: "feves".into(),
        kernels: None,
        faults: Vec::new(),
        deadline_factor: None,
        flight_out: None,
        metrics_out: None,
        every: feves_serve::DEFAULT_CHECKPOINT_EVERY,
        keep: 2,
        frames_done: 0,
        n_frames: farm::FRAMES,
        out_bytes: 0,
        input_fingerprint: 0,
        pipeline: false,
        out_crc: 0,
    };
    let mut restored = None;
    let mut kb = 0.0;
    for cycle in 0..CKPT_CYCLES {
        resume.frames_done = CKPT_AT + cycle;
        let state = spans
            .time("core.snapshot", None, || {
                enc.quiesce_pipeline();
                enc.snapshot()
            })
            .0;
        let path = spans
            .time("core.ckpt_write", None, || {
                mgr.write(&resume, &state, &NoopRecorder)
            })
            .0
            .map_err(|e| e.to_string())?;
        kb = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64 / 1024.0;
        let back = spans
            .time("core.restore", None, || {
                let (_, _, state, _) = feves_core::load_latest(&dir)?;
                FevesEncoder::restore(platform.clone(), cfg.clone(), state)
            })
            .0
            .map_err(|e| e.to_string())?;
        restored = Some(back);
    }
    let mut restored = restored.ok_or("no checkpoint cycle ran")?;
    let next = &frames[CKPT_AT];
    enc.encode_frame(next);
    restored.encode_frame(next);
    if enc.last_reconstruction_yuv() != restored.last_reconstruction_yuv() {
        return Err("a restored encoder encodes the next frame differently".into());
    }
    out.metric("core.snapshot_ms", median(&spans.ms("core.snapshot")), "ms");
    out.metric(
        "core.ckpt_write_ms",
        median(&spans.ms("core.ckpt_write")),
        "ms",
    );
    out.metric("core.ckpt_kb", kb, "kB");
    out.metric("core.restore_ms", median(&spans.ms("core.restore")), "ms");
    Ok(())
}

/// `sched`/`lp`, `hetsim` and `core` planning on the SysHK configuration
/// of `sched-sweep`: each timing frame, then `FevesBalancer::distribute`
/// replayed on the encoder's own characterization and last distribution.
fn sched_section(ctx: &Ctx, spans: &mut Spans, out: &mut Outcome) -> Result<(), String> {
    let (_, platform, cfg) = sched::configs(ctx.seed)
        .into_iter()
        .find(|(label, _, _)| label == "SysHK/1RF")
        .ok_or("SysHK/1RF is a sweep configuration")?;
    let mut enc = FevesEncoder::new(platform, cfg).map_err(|e| e.to_string())?;
    enc.enable_flight(SCHED_FRAMES + 4);
    let n_rows = enc.geometry().n_rows;
    let mut balancer = FevesBalancer::default();
    let mut reports = Vec::with_capacity(SCHED_FRAMES);
    for _ in 0..SCHED_FRAMES {
        let (rep, _) = spans.time("core.sched_iter", None, || enc.encode_inter_timing());
        let input = BalanceInput {
            n_rows,
            platform: enc.platform(),
            perf: enc.perf(),
            prev: rep.distribution.as_ref(),
        };
        spans.time("sched.distribute", None, || balancer.distribute(&input));
        reports.push(rep);
    }
    let report = EncodeReport::new("SysHK".into(), reports);
    let fps = report.steady_fps(sched::STEADY_SKIP);
    if fps < 25.0 {
        return Err(format!(
            "SysHK/1RF: {fps:.2} virtual fps is below real time (25)"
        ));
    }
    let us = |name: &str| -> Vec<f64> { spans.ms(name).iter().map(|m| m * 1e3).collect() };
    let (iter_us, dist_us) = (us("core.sched_iter"), us("sched.distribute"));
    let window_ms: f64 = report.inter_frames().map(|f| f.tau_tot).sum::<f64>() * 1e3;
    let records = enc.flight().ok_or("flight recorder enabled")?.to_vec();
    let n_dev = records.first().map_or(1, |r| r.devices.len()).max(1);
    let busy_ms: f64 = records
        .iter()
        .flat_map(|r| r.devices.iter())
        .map(|d| d.compute_busy_ms + d.transfer_busy_ms)
        .sum();
    let tau_ms: Vec<f64> = report.inter_frames().map(|f| f.tau_tot * 1e3).collect();
    out.metric("sched.distribute_us_p50", median(&dist_us), "us");
    out.metric("sched.distribute_us_p99", percentile(&dist_us, 99.0), "us");
    out.metric(
        "core.plan_sim_us_p50",
        median(&iter_us) - median(&dist_us),
        "us",
    );
    out.metric(
        "hetsim.idle_pct",
        100.0 * (1.0 - busy_ms / (n_dev as f64 * window_ms)),
        "%",
    );
    out.metric("hetsim.tau_tot_ms_p50", median(&tau_ms), "ms");
    out.info("hetsim.virtual_fps", fps, "fps");
    Ok(())
}
