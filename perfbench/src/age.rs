//! Aging a volume, untraced through `aging::replay_tapped` and traced
//! through the same replay loop rebuilt from public calls.

use std::time::Instant;

use aging::{
    replay_tapped, workload_stats, DayStats, LiveMap, Op, ReplayOptions, ReplayResult,
    WorkloadStats,
};
use ffs::Filesystem;
use ffs_types::{FsError, FsResult};

use crate::span::Span;
use crate::spec::AgeSpec;

/// One untraced aging: the clock is read around `generate`, around
/// `replay_tapped`, and in the per-day tap.
pub struct Aged {
    /// Generation plus replay, in seconds.
    pub wall_s: f64,
    /// Host seconds inside `replay_tapped`.
    pub replay_s: f64,
    /// Operations in the generated workload.
    pub ops: u64,
    /// Host milliseconds per simulated day (the first day includes mkfs).
    pub day_ms: Vec<f64>,
    /// The replay's result.
    pub result: ReplayResult,
}

/// Ages `spec` with the library's replay.
pub fn age(spec: &AgeSpec) -> FsResult<Aged> {
    let start = Instant::now();
    let w = spec.generate();
    let replay_start = Instant::now();
    let mut stamps = Vec::with_capacity(w.days.len());
    let mut tap = |_: &Filesystem, _: &DayStats| stamps.push(Instant::now());
    let result = replay_tapped(
        &w,
        &spec.params,
        spec.policy,
        ReplayOptions::default(),
        Some(&mut tap),
    )?;
    let end = Instant::now();
    let mut prev = replay_start;
    let day_ms = stamps
        .iter()
        .map(|&t| {
            let ms = (t - prev).as_secs_f64() * 1e3;
            prev = t;
            ms
        })
        .collect();
    Ok(Aged {
        wall_s: (end - start).as_secs_f64(),
        replay_s: (end - replay_start).as_secs_f64(),
        ops: w.days.iter().map(|d| d.ops.len() as u64).sum(),
        day_ms,
        result,
    })
}

/// Spans of one traced aging.
#[derive(Debug, Default)]
pub struct AgeSpans {
    /// `aging::generate`.
    pub gen: Span,
    /// `Filesystem::new` and `mkdir_per_cg`.
    pub mkfs: Span,
    /// `Filesystem::create`, per call.
    pub create: Span,
    /// `Filesystem::remove`, per call.
    pub remove: Span,
    /// `Filesystem::rewrite`, per call.
    pub rewrite: Span,
    /// The end-of-day `aggregate_layout`/`utilization` record.
    pub analytics: Span,
    /// The replay loop, from mkfs to the last day's record.
    pub replay: Span,
}

impl AgeSpans {
    /// Spans that keep per-call samples of the `ffs` operations.
    pub fn new() -> AgeSpans {
        AgeSpans {
            create: Span::sampled(),
            remove: Span::sampled(),
            rewrite: Span::sampled(),
            ..AgeSpans::default()
        }
    }

    /// Adds every span of `other` (another volume's aging) to these.
    pub fn merge(&mut self, other: AgeSpans) {
        self.gen.merge(other.gen);
        self.mkfs.merge(other.mkfs);
        self.create.merge(other.create);
        self.remove.merge(other.remove);
        self.rewrite.merge(other.rewrite);
        self.analytics.merge(other.analytics);
        self.replay.merge(other.replay);
    }

    /// Replay-loop time outside every `ffs` call: op dispatch and the
    /// `LiveMap`.
    pub fn replay_self_s(&self) -> f64 {
        self.replay.secs()
            - self.mkfs.secs()
            - self.create.secs()
            - self.remove.secs()
            - self.rewrite.secs()
            - self.analytics.secs()
    }

    /// Time covered by the top-level spans: generation and the replay
    /// loop (its `ffs` children plus its self time).
    pub fn covered_s(&self) -> f64 {
        self.gen.secs() + self.replay.secs()
    }
}

/// One traced aging.
pub struct TracedAge {
    /// Generation plus replay, in seconds.
    pub wall_s: f64,
    /// Where the time went.
    pub spans: AgeSpans,
    /// Operation counts of the generated workload.
    pub workload: WorkloadStats,
    /// The per-day series the loop recorded.
    pub daily: Vec<DayStats>,
    /// Creates skipped for lack of space.
    pub skipped_creates: u64,
    /// The aged volume.
    pub fs: Filesystem,
}

/// Ages `spec` with the replay loop rebuilt from `Filesystem` and
/// `LiveMap` calls, each timed. It must reproduce [`age`] exactly.
pub fn age_traced(spec: &AgeSpec) -> FsResult<TracedAge> {
    let mut s = AgeSpans::new();
    let start = Instant::now();
    let w = s.gen.time(|| spec.generate());
    let mut skipped = 0u64;
    let replayed: FsResult<(Filesystem, Vec<DayStats>)> = {
        let AgeSpans {
            mkfs,
            create,
            remove,
            rewrite,
            analytics,
            replay,
            ..
        } = &mut s;
        replay.time(|| {
            let (mut fs, dirs) = mkfs.time(|| {
                let mut fs = Filesystem::new(spec.params.clone(), spec.policy);
                let dirs = fs.mkdir_per_cg();
                (fs, dirs)
            });
            let dirs = dirs?;
            let mut live = LiveMap::new();
            let mut daily = Vec::with_capacity(w.days.len());
            for day_log in &w.days {
                let day = day_log.day;
                for op in &day_log.ops {
                    match *op {
                        Op::Create { file, cg, size, .. } => {
                            let dir = dirs[cg.0 as usize];
                            match create.time(|| fs.create(dir, size, day)) {
                                Ok(ino) => {
                                    live.insert(file, ino);
                                }
                                Err(FsError::NoSpace { .. }) => skipped += 1,
                                Err(e) => return Err(e),
                            }
                        }
                        Op::Delete { file } => {
                            if let Some(ino) = live.remove(&file) {
                                remove.time(|| fs.remove(ino))?;
                            }
                        }
                        Op::Rewrite { file } => {
                            if let Some(ino) = live.get(&file) {
                                rewrite.time(|| fs.rewrite(ino, day))?;
                            }
                        }
                    }
                }
                daily.push(analytics.time(|| DayStats {
                    day,
                    layout_score: fs.aggregate_layout().score(),
                    utilization: fs.utilization(),
                    nfiles: fs.nfiles(),
                    bytes_written: fs.bytes_written(),
                    defrag_moves: 0,
                    defrag_cost_us: 0,
                }));
            }
            Ok((fs, daily))
        })
    };
    let wall_s = start.elapsed().as_secs_f64();
    let (fs, daily) = replayed?;
    Ok(TracedAge {
        wall_s,
        spans: s,
        workload: workload_stats(&w),
        daily,
        skipped_creates: skipped,
        fs,
    })
}

/// What a replay produced, for comparing replays: the volume digest,
/// the day series and the skipped creates.
#[derive(Debug, PartialEq)]
pub struct Outcome {
    digest: u64,
    daily: Vec<DayStats>,
    skipped_creates: u64,
}

impl Outcome {
    /// The outcome of a library replay.
    pub fn of(r: &ReplayResult) -> Outcome {
        Outcome {
            digest: r.fs.digest(),
            daily: r.daily.clone(),
            skipped_creates: r.skipped_creates,
        }
    }
}

impl TracedAge {
    /// The outcome of the traced replay.
    pub fn outcome(&self) -> Outcome {
        Outcome {
            digest: self.fs.digest(),
            daily: self.daily.clone(),
            skipped_creates: self.skipped_creates,
        }
    }
}
