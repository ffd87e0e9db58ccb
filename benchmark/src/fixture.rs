//! Workload plans and their inputs: which dataset, which pipeline
//! configuration, and — for the serve workloads — a frozen snapshot behind
//! a live loopback server with its client connections.

use crate::trace::{SpanId, Tracer};
use er_datagen::{presets, DatasetConfig};
use er_model::{EntityCollection, EntityProfile, GroundTruth};
use mb_core::{PipelineConfig, PruningScheme, WeightingScheme};
use mb_observe::Noop;
use mb_serve::{Client, Server, ServerConfig, ServerHandle, Snapshot, SnapshotView};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Unindexed probe profiles generated per run; probe requests cycle
/// through them.
pub const PROBE_POOL: usize = 4096;

/// The three datasets, each with the pipeline the issue pairs it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// `d1c` merged Dirty: 63.9k terse profiles; JS + CNP, so node-centric
    /// top-k pruning carries the pipeline.
    D1d,
    /// `d2c` Clean-Clean: 50.8k profiles with a verbose side 2; ARCS +
    /// Reciprocal WNP, so tokenizing and posting dominate and meta-blocking
    /// is small.
    D2c,
    /// `d3c` at 3 % merged Dirty: 100.6k profiles and a dense graph; JS +
    /// WEP, so the edge sweep and the entity index dominate.
    D3d,
}

/// What a workload does with its dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Collection → retained-comparison stream, one thread.
    Batch,
    /// Closed-loop entity queries over the wire.
    ServeEntity,
    /// Closed-loop probe queries (unindexed profiles) over the wire.
    ServeProbe,
    /// Entity queries with upserts and deletes beside them, then one
    /// compaction.
    ServeMixed,
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its dataset.
    pub dataset: Dataset,
    /// Its traffic.
    pub mode: Mode,
}

impl Plan {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Plan> {
        let (dataset, mode) = match name {
            "batch-d1d" => (Dataset::D1d, Mode::Batch),
            "batch-d2c" => (Dataset::D2c, Mode::Batch),
            "batch-d3d" => (Dataset::D3d, Mode::Batch),
            "serve-entity" => (Dataset::D1d, Mode::ServeEntity),
            "serve-probe" => (Dataset::D2c, Mode::ServeProbe),
            "serve-mixed" => (Dataset::D1d, Mode::ServeMixed),
            _ => return None,
        };
        let name = crate::spec::WORKLOADS.into_iter().find(|w| *w == name)?;
        Some(Plan { name, dataset, mode })
    }

    /// Whether the workload's own kind of read is the probe query (the
    /// verbose Clean-Clean dataset) rather than the entity query.
    pub fn reads_probes(&self) -> bool {
        self.dataset == Dataset::D2c
    }

    /// The pipeline the dataset is paired with: Block Filtering at 0.8, one
    /// thread. A snapshot frozen under it retains top-k for CNP and
    /// above-mean for the WNP/WEP family.
    pub fn config(&self) -> PipelineConfig {
        let (weighting, pruning) = match self.dataset {
            Dataset::D1d => (WeightingScheme::Js, PruningScheme::Cnp),
            Dataset::D2c => (WeightingScheme::Arcs, PruningScheme::ReciprocalWnp),
            Dataset::D3d => (WeightingScheme::Js, PruningScheme::Wep),
        };
        PipelineConfig { weighting, pruning, filter_ratio: Some(0.8), ..PipelineConfig::default() }
    }
}

/// A generated dataset.
#[derive(Debug)]
pub struct Data {
    /// The profiles.
    pub collection: EntityCollection,
    /// Their duplicate pairs.
    pub ground_truth: GroundTruth,
}

fn dataset_config(dataset: Dataset, seed: u64, smoke: bool) -> DatasetConfig {
    if smoke {
        return presets::tiny(seed);
    }
    match dataset {
        Dataset::D1d => presets::d1c(seed),
        Dataset::D2c => presets::d2c(seed),
        Dataset::D3d => presets::d3c(seed, 0.03),
    }
}

/// Generates `dataset` from `seed`; `smoke` swaps in the `tiny` preset of
/// the same ER kind.
pub fn generate(dataset: Dataset, seed: u64, smoke: bool) -> Result<Data, String> {
    let built = presets::build(&dataset_config(dataset, seed, smoke)).map_err(|e| e.to_string())?;
    let built = if dataset == Dataset::D2c { built } else { built.into_dirty() };
    Ok(Data { collection: built.collection, ground_truth: built.ground_truth })
}

/// Profiles the index has never seen: side 2 of a small dataset drawn from
/// a second seed over the same vocabulary, so most tokens route to indexed
/// blocks and some are unseen. Clean-Clean probes join side 2 and receive
/// side-1 candidates.
pub fn probe_profiles(
    dataset: Dataset,
    seed: u64,
    smoke: bool,
) -> Result<Vec<EntityProfile>, String> {
    let mut config = dataset_config(dataset, seed ^ 0x5EED_0002, smoke);
    let pool = PROBE_POOL.min(config.side2.size);
    config.matched_pairs = config.matched_pairs.min(pool);
    config.side1.size = config.side1.size.min(pool);
    config.side2.size = pool;
    let built = presets::build(&config).map_err(|e| e.to_string())?;
    let split = built.collection.split();
    Ok(built.collection.profiles()[split..].to_vec())
}

/// How long the parts of a serve set-up took, in ms.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeSetupMs {
    /// `Snapshot::build`.
    pub build: f64,
    /// `Snapshot::write_to`.
    pub write: f64,
    /// `SnapshotView::read_from`.
    pub load: f64,
    /// `Server::start`.
    pub start: f64,
}

/// A frozen snapshot behind a live server.
pub struct Served {
    /// The in-process server.
    pub handle: ServerHandle,
    /// Where the snapshot was written; removed on drop.
    pub path: PathBuf,
    /// Size of that file.
    pub snapshot_bytes: u64,
    /// Part timings.
    pub setup_ms: ServeSetupMs,
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Reads the snapshot at `path` zero-copy.
pub fn load_view(path: &Path) -> Result<SnapshotView, String> {
    SnapshotView::read_from(path, &mut Noop).map_err(|e| format!("loading snapshot: {e}"))
}

/// Freezes `collection` under `config`, writes it to `path`, loads it
/// zero-copy and serves it on an ephemeral loopback port; each call is a
/// span under `parent`.
pub fn serve(
    collection: &EntityCollection,
    config: PipelineConfig,
    path: PathBuf,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Result<Served, String> {
    let mut setup_ms = ServeSetupMs::default();
    let (snapshot, ms) =
        tracer.timed("serve.snapshot.build", parent, 0, || Snapshot::build(collection, config));
    let snapshot = snapshot.map_err(|e| format!("snapshot: {e}"))?;
    setup_ms.build = ms;
    let (written, ms) =
        tracer.timed("serve.snapshot.write", parent, 0, || snapshot.write_to(&path));
    written.map_err(|e| format!("writing {}: {e}", path.display()))?;
    setup_ms.write = ms;
    drop(snapshot);
    let (view, ms) = tracer.timed("serve.view.load", parent, 0, || load_view(&path));
    setup_ms.load = ms;
    let view = view?;
    let (served, ms) = tracer.timed("serve.server.start", parent, 0, || start(view, path));
    setup_ms.start = ms;
    let mut served = served?;
    served.setup_ms = setup_ms;
    Ok(served)
}

/// Serves an already loaded `view` of the snapshot at `path`.
pub fn start(view: SnapshotView, path: PathBuf) -> Result<Served, String> {
    let snapshot_bytes = view.file_len() as u64;
    let handle =
        Server::start(view, ServerConfig::default()).map_err(|e| format!("server: {e}"))?;
    Ok(Served { handle, path, snapshot_bytes, setup_ms: ServeSetupMs::default() })
}

/// Opens `connections` client connections to `handle`.
pub fn connect(handle: &ServerHandle, connections: usize) -> Result<Vec<Client>, String> {
    (0..connections)
        .map(|_| Client::connect(handle.local_addr()).map_err(|e| format!("connect: {e}")))
        .collect()
}

/// Closed-loop client connections of a serve workload's measured phase:
/// one, with the whole process [`pin`]ned to one CPU. The client and the
/// connection's handler thread then take turns on that CPU, so a round trip
/// is the processor time both sides spend on it and no wake-up crosses
/// cores — which is what made two connections on two shared cores unsteady
/// (see the README's *Steadiness*).
pub const MEASURED_CONNECTIONS: usize = 1;

/// Closed-loop client connections of the layer suite's round-trip probes,
/// which run unpinned: no more than the host has cores, capped at four.
pub fn connections() -> usize {
    nproc().min(4)
}

/// Cores available to this process when it started ([`pin`] narrows what
/// the operating system reports afterwards).
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Words of a Linux `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU affinity narrowed to one CPU, until dropped.
#[derive(Debug)]
pub struct Pinned {
    /// The CPU the thread, and every thread started from it since, runs on.
    pub cpu: usize,
    original: [u64; CPU_SET_WORDS],
}

/// Restricts the calling thread, and every thread started from it
/// afterwards, to the highest-numbered CPU it may run on. Dropping the
/// result gives the calling thread (only) its CPUs back.
pub fn pin() -> Result<Pinned, String> {
    nproc();
    let mut original = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&original);
    // SAFETY: `original` is a writable buffer of `size` bytes, which is what
    // the call fills; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, original.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".to_owned());
    }
    let (word, bits) = original
        .iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .ok_or("empty CPU affinity mask")?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; CPU_SET_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a readable buffer of `size` bytes naming one CPU the
    // thread was already allowed on.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err("sched_setaffinity failed".to_owned());
    }
    Ok(Pinned { cpu: word * 64 + bit, original })
}

impl Drop for Pinned {
    fn drop(&mut self) {
        let size = std::mem::size_of_val(&self.original);
        // SAFETY: `original` is a readable buffer of `size` bytes holding
        // the mask this thread had before `pin`.
        let _ = unsafe { sched_setaffinity(0, size, self.original.as_ptr()) };
    }
}
