//! The named workloads. The seed reaches only the workload generator's
//! [`AgingConfig`]; volume geometry, policies, disk and benchmark sizes
//! are fixed per workload.

use aging::{profiles, AgingConfig};
use ffs::AllocPolicy;
use ffs_types::{DiskParams, FsParams, MB};
use iobench::SeqBenchConfig;

/// Days of the hot-file set (Table 2: files modified in the last month).
pub const HOT_DAYS: u32 = 30;

/// Instances of the news spool in `age-news-ffs`. Its host time per
/// operation depends strongly on the instance: on one host, three
/// instances from seed 1996 replayed at 1.71 to 1.91 M ops/s and three
/// from seed 1 at 2.13 to 2.49 M ops/s, with day p90 near 10 ms against
/// 7 ms. Six instances halve the weight of each. The paper workload's
/// instances differ by a few percent, so `age-realloc` ages one.
const NEWS_INSTANCES: u64 = 6;

/// The generator seed of instance `k` of a workload with `seed`.
/// Instance 0 is the seed itself; the others are far from it, so runs
/// with nearby seeds share no instance.
fn instance_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(1_000_003))
}

/// One volume to age: a generator configuration replayed on a fresh file
/// system under one allocation policy.
#[derive(Clone, Debug)]
pub struct AgeSpec {
    /// Label in reports.
    pub label: &'static str,
    /// Generator configuration, carrying the seed.
    pub config: AgingConfig,
    /// Volume geometry.
    pub params: FsParams,
    /// Allocation policy.
    pub policy: AllocPolicy,
}

impl AgeSpec {
    /// The workload this volume replays.
    pub fn generate(&self) -> aging::Workload {
        aging::generate(
            &self.config,
            self.params.ncg,
            self.params.data_capacity_bytes(),
        )
    }
}

/// The Section 5 I/O run over aged volumes.
#[derive(Clone, Debug)]
pub struct IoSpec {
    /// Disk model for every device.
    pub disk: DiskParams,
    /// Bytes of the raw read and raw write sweeps.
    pub raw_bytes: u64,
    /// Sequential-sweep configuration.
    pub sweep: SeqBenchConfig,
    /// Sweep file sizes, one `run_point` each.
    pub sizes: Vec<u64>,
}

/// A named workload: the volumes it ages and the I/O run over them.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Volumes, aged in this order. `layout_score` and `hot_read_mb_s`
    /// are the mean over them.
    pub volumes: Vec<AgeSpec>,
    /// The I/O run over the aged volumes.
    pub io: IoSpec,
}

/// Volume size of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The paper's 502 MB volume and full-length workloads.
    Paper,
    /// A 16 MB volume aged for a few days, for the benchmark's own tests.
    Small {
        /// Days to age.
        days: u32,
    },
}

/// Names accepted by `--workload`.
pub const NAMES: [&str; 2] = ["age-realloc", "age-news-ffs"];

/// Builds workload `name` for `seed` at `scale`.
pub fn workload(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
    let params = match scale {
        Scale::Paper => FsParams::paper_502mb(),
        Scale::Small { .. } => FsParams::small_test(),
    };
    let paper = match scale {
        Scale::Paper => AgingConfig::paper(seed),
        Scale::Small { days } => AgingConfig::small_test(days, seed),
    };
    let vol = |label, config: AgingConfig, policy| AgeSpec {
        label,
        config,
        params: params.clone(),
        policy,
    };
    let io = match scale {
        Scale::Paper => IoSpec {
            disk: DiskParams::seagate_32430n(),
            raw_bytes: 32 * MB,
            sweep: SeqBenchConfig::default(),
            sizes: iobench::paper_file_sizes(),
        },
        Scale::Small { .. } => IoSpec {
            disk: DiskParams::seagate_32430n(),
            raw_bytes: 4 * MB,
            sweep: SeqBenchConfig {
                total_bytes: 2 * MB,
                ..SeqBenchConfig::default()
            },
            sizes: iobench::paper_file_sizes()
                .into_iter()
                .filter(|&s| s <= MB)
                .collect(),
        },
    };
    let volumes = match name {
        "age-realloc" => vec![vol("realloc", paper, AllocPolicy::Realloc)],
        "age-news-ffs" => (0..NEWS_INSTANCES)
            .map(|k| news(instance_seed(seed, k), scale))
            .map(|config| vol("news-ffs", config, AllocPolicy::Orig))
            .collect(),
        _ => return None,
    };
    Some(Workload {
        name: NAMES.iter().copied().find(|n| *n == name)?,
        volumes,
        io,
    })
}

/// The `profiles` exhibit's news spool: 120 days with a 40-day ramp. The
/// small scale keeps its file-size model and scales its daily activity
/// the way [`AgingConfig::small_test`] scales the paper workload.
fn news(seed: u64, scale: Scale) -> AgingConfig {
    let mut c = profiles::news(seed).config;
    match scale {
        Scale::Paper => {
            c.days = 120;
            c.ramp_days = 40;
        }
        Scale::Small { days } => {
            let small = AgingConfig::small_test(days, seed);
            let paper = AgingConfig::paper(seed);
            let k = small.short_pairs_per_day / paper.short_pairs_per_day;
            c.days = small.days;
            c.ramp_days = small.ramp_days;
            c.short_pairs_per_day *= k;
            c.long_creates_per_day = (c.long_creates_per_day * k).max(4.0);
            c.long_modifies_per_day = (c.long_modifies_per_day * k).max(3.0);
            c.rewrites_per_day = (c.rewrites_per_day * k).max(3.0);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_reaches_only_the_generator() {
        for name in NAMES {
            for scale in [Scale::Paper, Scale::Small { days: 4 }] {
                let a = workload(name, 1, scale).expect("known workload");
                let mut b = workload(name, 2, scale).expect("known workload");
                assert_eq!(a.volumes[0].config.seed, 1);
                for (v, u) in b.volumes.iter_mut().zip(&a.volumes) {
                    assert_eq!(v.config.seed, u.config.seed + 1);
                    v.config.seed = u.config.seed;
                }
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{name}");
            }
        }
    }

    #[test]
    fn news_instances_are_distinct() {
        let w = workload("age-news-ffs", 1996, Scale::Paper).expect("known workload");
        let seeds: Vec<u64> = w.volumes.iter().map(|v| v.config.seed).collect();
        assert_eq!(seeds.len(), NEWS_INSTANCES as usize);
        assert_eq!(seeds[..3], [1996, 1_001_999, 2_002_002]);
        assert_eq!(instance_seed(u64::MAX, 1), 1_000_002);
    }

    #[test]
    fn unknown_names_are_refused() {
        assert!(workload("age", 1, Scale::Paper).is_none());
    }
}
