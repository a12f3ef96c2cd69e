//! The Section 5 I/O run over aged volumes: raw device sweeps, one
//! sequential sweep per volume and the hot-file benchmark. Untraced it
//! calls the `disk` and `iobench` entry points; traced it rebuilds each
//! sweep point and hot-file run from `Filesystem`, `IoEngine` and
//! `Device` calls, each timed.

use std::time::Instant;

use disk::{raw_read_throughput, raw_write_throughput, Device, DeviceStats, IoKind, RawSweep};
use ffs::{Filesystem, LayoutAgg};
use ffs_types::units::mb_per_sec;
use ffs_types::{DirId, FsResult, Ino};
use iobench::{run_hot_files, run_point, FsDiskMap, HotFilesResult, IoEngine, SeqPoint};

use crate::span::Span;
use crate::spec::IoSpec;

/// An aged volume and its hot-file set.
pub struct Volume {
    /// The aged file system.
    pub fs: Filesystem,
    /// Files modified in the last [`crate::spec::HOT_DAYS`] days.
    pub hot: Vec<Ino>,
}

/// What one I/O run produced.
#[derive(Clone, Debug)]
pub struct IoOutput {
    /// Raw read sweep.
    pub raw_read: RawSweep,
    /// Raw write sweep.
    pub raw_write: RawSweep,
    /// One sweep per volume.
    pub sweeps: Vec<Vec<SeqPoint>>,
    /// One hot-file run per volume.
    pub hots: Vec<HotFilesResult>,
}

/// Field-by-field equality: the library's result types do not all
/// implement `PartialEq`.
impl PartialEq for IoOutput {
    fn eq(&self, other: &IoOutput) -> bool {
        let raw = |x: &RawSweep, y: &RawSweep| {
            x.bytes == y.bytes && x.elapsed_us == y.elapsed_us && x.mb_per_sec == y.mb_per_sec
        };
        let point = |x: &SeqPoint, y: &SeqPoint| {
            x.file_size == y.file_size
                && x.nfiles == y.nfiles
                && x.write_mb_s == y.write_mb_s
                && x.read_mb_s == y.read_mb_s
                && x.layout == y.layout
                && x.device == y.device
        };
        let hot = |x: &HotFilesResult, y: &HotFilesResult| {
            x.nfiles == y.nfiles
                && x.bytes == y.bytes
                && x.layout == y.layout
                && x.read_mb_s == y.read_mb_s
                && x.write_mb_s == y.write_mb_s
                && x.device == y.device
        };
        let sweep = |x: &Vec<SeqPoint>, y: &Vec<SeqPoint>| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| point(p, q))
        };
        raw(&self.raw_read, &other.raw_read)
            && raw(&self.raw_write, &other.raw_write)
            && self.sweeps.len() == other.sweeps.len()
            && self
                .sweeps
                .iter()
                .zip(&other.sweeps)
                .all(|(x, y)| sweep(x, y))
            && self.hots.len() == other.hots.len()
            && self.hots.iter().zip(&other.hots).all(|(x, y)| hot(x, y))
    }
}

impl IoOutput {
    /// Device requests of the sweeps and hot-file runs.
    pub fn requests(&self) -> u64 {
        let sweep = self.sweeps.iter().flatten().map(|p| &p.device);
        let hot = self.hots.iter().map(|h| &h.device);
        sweep.chain(hot).map(|d| d.reads + d.writes).sum()
    }
}

/// One untraced I/O run.
pub struct IoRun {
    /// The whole run, in seconds.
    pub wall_s: f64,
    /// Host seconds of the two raw sweeps.
    pub raw_s: f64,
    /// Host seconds of each sweep point and hot-file run, in order: per
    /// volume its points, then its hot-file run.
    pub disk_s: Vec<f64>,
    /// Results.
    pub out: IoOutput,
}

/// Runs the I/O benchmark over `vols` through the library entry points.
pub fn io(vols: &[Volume], spec: &IoSpec) -> FsResult<IoRun> {
    let start = Instant::now();
    let raw_read = raw_read_throughput(&spec.disk, spec.raw_bytes);
    let raw_write = raw_write_throughput(&spec.disk, spec.raw_bytes);
    let mut last = Instant::now();
    let raw_s = (last - start).as_secs_f64();
    let mut lap = || {
        let now = Instant::now();
        (now - std::mem::replace(&mut last, now)).as_secs_f64()
    };
    let mut disk_s = Vec::with_capacity(vols.len() * (spec.sizes.len() + 1));
    let mut sweeps = Vec::with_capacity(vols.len());
    let mut hots = Vec::with_capacity(vols.len());
    for v in vols {
        let mut sweep = Vec::with_capacity(spec.sizes.len());
        for &size in &spec.sizes {
            sweep.push(run_point(&v.fs, &spec.sweep, size)?);
            disk_s.push(lap());
        }
        sweeps.push(sweep);
        hots.push(run_hot_files(&v.fs, &v.hot, &spec.disk));
        disk_s.push(lap());
    }
    Ok(IoRun {
        wall_s: start.elapsed().as_secs_f64(),
        raw_s,
        disk_s,
        out: IoOutput {
            raw_read,
            raw_write,
            sweeps,
            hots,
        },
    })
}

/// Spans of one traced I/O run.
#[derive(Debug, Default)]
pub struct IoSpans {
    /// Raw device sweeps.
    pub raw: Span,
    /// `Filesystem::clone` of the aged volume per sweep point, and the
    /// clone's drop.
    pub clone: Span,
    /// `mkdir` and `create` on the clone.
    pub create: Span,
    /// `IoEngine` calls of the sweep points.
    pub io: Span,
    /// Whole hot-file runs.
    pub hot: Span,
    /// Whole sweeps, in seconds: the clone, create and io spans plus the
    /// points' own bookkeeping.
    pub sweep_s: f64,
}

impl IoSpans {
    /// Sweep time outside the clone, create and io spans: building each
    /// point's device, address map and result.
    pub fn sweep_self_s(&self) -> f64 {
        self.sweep_s - self.clone.secs() - self.create.secs() - self.io.secs()
    }

    /// Time covered by the top-level spans: raw sweeps, sequential sweeps
    /// and hot-file runs.
    pub fn covered_s(&self) -> f64 {
        self.raw.secs() + self.sweep_s + self.hot.secs()
    }
}

/// One traced I/O run.
pub struct TracedIo {
    /// The whole run, in seconds.
    pub wall_s: f64,
    /// Where the time went.
    pub spans: IoSpans,
    /// Results, comparable with [`IoRun::out`].
    pub out: IoOutput,
    /// Device counters over every device of the run.
    pub device: DeviceStats,
    /// Device requests issued inside [`IoSpans::io`].
    pub sweep_requests: u64,
    /// Simulated device time over every device of the run, in seconds.
    pub sim_s: f64,
}

/// Runs the I/O benchmark over `vols`, rebuilt from timed calls.
pub fn io_traced(vols: &[Volume], spec: &IoSpec) -> FsResult<TracedIo> {
    let mut s = IoSpans::default();
    let mut device = DeviceStats::default();
    let mut sim_us = 0.0;
    let start = Instant::now();
    let mut raw = |kind| {
        let (sweep, dev) = s.raw.time(|| raw_traced(spec, kind));
        device.merge(dev.stats());
        sim_us += dev.now();
        sweep
    };
    let raw_read = raw(IoKind::Read);
    let raw_write = raw(IoKind::Write);
    let mut sweeps = Vec::with_capacity(vols.len());
    let mut hots = Vec::with_capacity(vols.len());
    let mut sweep_requests = 0;
    for v in vols {
        let t = Instant::now();
        let points = spec
            .sizes
            .iter()
            .map(|&size| point_traced(&v.fs, spec, size, &mut s))
            .collect::<FsResult<Vec<_>>>()?;
        s.sweep_s += t.elapsed().as_secs_f64();
        for (point, now) in &points {
            sweep_requests += point.device.reads + point.device.writes;
            device.merge(&point.device);
            sim_us += now;
        }
        sweeps.push(points.into_iter().map(|(point, _)| point).collect());
        let (hot, now) = s.hot.time(|| hot_traced(&v.fs, &v.hot, spec));
        device.merge(&hot.device);
        sim_us += now;
        hots.push(hot);
    }
    Ok(TracedIo {
        wall_s: start.elapsed().as_secs_f64(),
        spans: s,
        out: IoOutput {
            raw_read,
            raw_write,
            sweeps,
            hots,
        },
        device,
        sweep_requests,
        sim_s: sim_us / 1e6,
    })
}

/// `disk::raw` rebuilt: stream `raw_bytes` from a quarter into the disk.
fn raw_traced(spec: &IoSpec, kind: IoKind) -> (RawSweep, Device) {
    let mut dev = Device::new(spec.disk.clone());
    let start_lba = dev.geometry().total_sectors() / 4;
    let t0 = dev.now();
    dev.transfer(kind, start_lba, spec.raw_bytes);
    let elapsed_us = dev.now() - t0;
    let sweep = RawSweep {
        bytes: spec.raw_bytes,
        elapsed_us,
        mb_per_sec: mb_per_sec(spec.raw_bytes, elapsed_us),
    };
    (sweep, dev)
}

/// `iobench::run_point` rebuilt. Returns the point and the device's final
/// simulated clock.
fn point_traced(
    aged: &Filesystem,
    spec: &IoSpec,
    file_size: u64,
    s: &mut IoSpans,
) -> FsResult<(SeqPoint, f64)> {
    let config = &spec.sweep;
    let mut fs = s.clone.time(|| aged.clone());
    let params = fs.params().clone();
    let nfiles = (config.total_bytes / file_size).max(1) as u32;
    let ndirs = nfiles.div_ceil(config.files_per_dir);
    let dirs: Vec<DirId> = s
        .create
        .time(|| (0..ndirs).map(|_| fs.mkdir()).collect::<FsResult<_>>())?;
    let mut dev = Device::new(config.disk.clone());
    let map = FsDiskMap::new(&params, config.disk.sector_size, 0);

    let t0 = dev.now();
    let mut inos = Vec::with_capacity(nfiles as usize);
    for i in 0..nfiles {
        let dir = dirs[(i / config.files_per_dir) as usize];
        let ino = s.create.time(|| fs.create(dir, file_size, 0))?;
        inos.push(ino);
        let (cg, slot) = params.ino_to_cg(ino);
        let inode_block = params.inode_daddr(cg, slot);
        let dir_block = fs.dir(dir).expect("benchmark directory exists").block;
        let meta = fs.file(ino).expect("created file exists").clone();
        s.io.time(|| {
            let mut eng = IoEngine::new(&mut dev, &params, map);
            eng.sync_block_write(inode_block, &params);
            eng.sync_block_write(dir_block, &params);
            eng.transfer_file(IoKind::Write, &meta, &params);
        });
    }
    let write_us = dev.now() - t0;

    let t1 = dev.now();
    for &ino in &inos {
        let meta = fs.file(ino).expect("created file exists").clone();
        s.io.time(|| {
            IoEngine::new(&mut dev, &params, map).transfer_file(IoKind::Read, &meta, &params)
        });
    }
    let read_us = dev.now() - t1;

    let mut layout = LayoutAgg::default();
    for &ino in &inos {
        let f = fs.file(ino).expect("created file exists");
        if let Some((opt, scored)) = f.layout_counts(&params) {
            layout.opt += opt;
            layout.scored += scored;
        }
    }
    let total = nfiles as u64 * file_size;
    s.clone.time(|| drop(fs));
    let point = SeqPoint {
        file_size,
        nfiles,
        write_mb_s: mb_per_sec(total, write_us),
        read_mb_s: mb_per_sec(total, read_us),
        layout,
        device: dev.stats().clone(),
    };
    Ok((point, dev.now()))
}

/// `iobench::run_hot_files` rebuilt. Returns the result and the device's
/// final simulated clock.
fn hot_traced(fs: &Filesystem, hot: &[Ino], spec: &IoSpec) -> (HotFilesResult, f64) {
    let params = fs.params();
    let order = iobench::sort_by_directory(fs, hot.to_vec());
    let mut dev = Device::new(spec.disk.clone());
    let map = FsDiskMap::new(params, spec.disk.sector_size, 0);
    let mut bytes = 0u64;
    let mut layout = LayoutAgg::default();
    for &ino in &order {
        let f = fs.file(ino).expect("hot file is live");
        bytes += f.size;
        if let Some((opt, scored)) = f.layout_counts(params) {
            layout.opt += opt;
            layout.scored += scored;
        }
    }
    let mut phase = |kind| {
        let t0 = dev.now();
        for &ino in &order {
            let meta = fs.file(ino).expect("hot file is live").clone();
            IoEngine::new(&mut dev, params, map).transfer_file(kind, &meta, params);
        }
        dev.now() - t0
    };
    let read_us = phase(IoKind::Read);
    let write_us = phase(IoKind::Write);
    let result = HotFilesResult {
        nfiles: order.len(),
        bytes,
        layout,
        read_mb_s: mb_per_sec(bytes, read_us),
        write_mb_s: mb_per_sec(bytes, write_us),
        device: dev.stats().clone(),
    };
    (result, dev.now())
}
