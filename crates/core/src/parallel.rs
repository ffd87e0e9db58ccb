//! Ordered, windowed graph sweeps.
//!
//! The paper's algorithms are single-threaded; its related work scales
//! meta-blocking out with MapReduce (Papadakis et al., WSDM'12). This
//! module is the shared-memory equivalent, built so that the blocking
//! graph's output is never held in memory either (§4.2): every sweep of
//! every pruning scheme, graph-free Comparison Propagation and the scorer's
//! batch ([`crate::NeighborhoodScorer::batch`]) run on one driver.
//!
//! * **Windows.** A sweep's pivot range — `0..|E|`, or the second
//!   Clean-Clean side for phase 1 of a two-phase scheme
//!   ([`Sweep::whole_groups`]) — is cut into windows of [`WINDOW_PIVOTS`]
//!   consecutive ids from its start. The cut depends on the range alone —
//!   not on the thread count, not on scheduling.
//! * **Shared load.** Threads claim the next unclaimed window from one
//!   counter, so a thread that drew light windows simply draws more of
//!   them; each keeps one private [`NeighborhoodScanner`] and one
//!   [`TopK`] for all of its windows. `N` threads means the caller and
//!   `N − 1` spawned workers.
//! * **Ordered drain.** A window's visitor sends what it keeps through an
//!   [`Out`]. Off the inline path that is the window's own small buffer;
//!   the calling thread hands the buffers to the caller's sink strictly in
//!   window order, so the sink sees the sequential pivot-ascending stream
//!   by construction. Whenever the next window in order is not finished
//!   yet, the calling thread sweeps a window itself instead of sleeping.
//! * **Back-pressure.** No window more than `threads ×` [`RUN_AHEAD`] past
//!   the one being drained is started; a worker that would parks until the
//!   drain catches up. What a sweep holds is therefore `O(threads × one
//!   window's output)`, never `O(retained)`.
//! * **Inline at one thread.** With one thread (or one window) nothing is
//!   spawned: the windows run on the calling thread and the visitor's
//!   [`Out`] *is* the caller's sink. Every scheme is one body for any
//!   thread count.
//! * **Reductions.** A float reduction over a sweep is defined as
//!   per-window partial results combined in window order — at every thread
//!   count, one included ([`Sweep::weight_sum`]). That, not chunk-ordered
//!   folding, is what makes the WEP threshold the same `f64` for any `N`.
//!
//! A panic in a visitor (on a worker) or in the sink (on the caller)
//! abandons the sweep: parked workers wake and exit, every thread is
//! joined, and the panic resumes on the caller with its payload.

use crate::context::GraphContext;
use crate::prune::TopK;
use crate::scanner::{NeighborhoodScanner, ScanScope};
use crate::weighting::{optimized, original, WeightingImpl};
use crate::weights::EdgeWeigher;
use er_model::{EntityId, ErKind};
use std::ops::Range;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Pivots per window. A window is the unit of everything the driver bounds:
/// what a thread sweeps between two visits to the shared queue, and what is
/// buffered for the drain. 64 keeps the buffered share small — at most
/// `threads × RUN_AHEAD + 1` windows out of `|E| / 64`, five of 1 572 on the
/// 100.6k-profile `batch-d3d` at two threads — and hands out the dense head
/// of a Dirty graph (there the first quarter of the pivots owns 43 % of the
/// edges) in pieces small enough to share evenly. It is not smaller because
/// a window costs three short critical sections on one mutex, against the
/// ~5 µs a window of the sparsest bench workload (11 edges per pivot) takes
/// to sweep; on the builder's host 32, 64 and 128 were indistinguishable in
/// time (EXPERIMENTS.md, "Windowed sweeps").
pub const WINDOW_PIVOTS: u32 = 64;

/// Windows per thread that may be started beyond the one being drained: the
/// one a thread is sweeping and one finished, waiting its turn — the least
/// that lets a thread move on without waiting for the drain. Four measured
/// no faster and buffered twice as much: the calling thread sweeps too, so a
/// slow head window never idles it, and neighboring windows cost about the
/// same.
pub const RUN_AHEAD: usize = 2;

/// Threads this host runs at once ([`std::thread::available_parallelism`];
/// 1 when it cannot tell). Every thread count that means "as many as the
/// host has" is read here.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolves a configured worker-thread count: `0` is [`host_threads`], any
/// other value is taken as-is.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => host_threads(),
        n => n,
    }
}

/// Where a window's visitor sends what it keeps: the caller's sink itself
/// when the sweep runs inline, the window's buffer when it runs on a worker.
/// Either way the caller's sink receives the items in sequential order.
pub struct Out<'a, I, S>(Dest<'a, I, S>);

enum Dest<'a, I, S> {
    Sink(&'a mut S),
    Window(&'a mut Vec<I>),
}

impl<I, S: FnMut(I)> Out<'_, I, S> {
    /// Sends one item towards the sink.
    #[inline]
    pub fn emit(&mut self, item: I) {
        match &mut self.0 {
            Dest::Sink(sink) => sink(item),
            Dest::Window(buffer) => buffer.push(item),
        }
    }
}

/// What a sweep covered — the tallies every scheme reports as counters.
/// The totals are the same for any thread count; only the split over
/// threads follows the scheduling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Swept {
    /// Non-empty neighborhoods visited (zero for an edge sweep).
    pub neighborhoods: u64,
    /// Edges weighed, by the thread that swept them (one entry for an inline
    /// sweep): distinct edges for an edge sweep, directed visits — each edge
    /// twice — for a neighborhood sweep.
    pub worker_edges: Vec<u64>,
}

impl Swept {
    /// Edges weighed in total.
    pub fn edges(&self) -> u64 {
        self.worker_edges.iter().sum()
    }
}

/// A worker's private state: the `O(|E|)` scan arrays, the neighborhood's
/// weight buffer, the top-`k` selection scratch and its share of the
/// sweep's tallies.
pub(crate) struct Worker {
    pub(crate) scanner: NeighborhoodScanner,
    /// Rescans each whole group an edge sweep delivers ([`Sweep::whole_groups`])
    /// as the neighborhood it stands for.
    #[cfg(feature = "sanitize")]
    rescan: NeighborhoodScanner,
    pub(crate) weights: Vec<f64>,
    pub(crate) top: TopK,
    neighborhoods: u64,
    edges: u64,
    /// Items its previous window emitted.
    emitted: usize,
}

/// Runs `window(worker, pivots, out)` over every window of `pivots` — ids of
/// a graph over `num_entities` profiles — on up to `threads` workers,
/// delivering what the windows emit to `sink` in window order (module docs).
/// `threads` is a resolved count, not `0`.
pub(crate) fn sweep_windows<I: Send, S: FnMut(I)>(
    num_entities: usize,
    pivots: Range<u32>,
    threads: usize,
    window: impl Fn(&mut Worker, Range<u32>, &mut Out<'_, I, S>) + Sync,
    mut sink: S,
) -> Swept {
    let Range { start, end } = pivots;
    let windows = end.saturating_sub(start).div_ceil(WINDOW_PIVOTS) as usize;
    let pivots = |i: usize| {
        let first = start + i as u32 * WINDOW_PIVOTS;
        first..end.min(first.saturating_add(WINDOW_PIVOTS))
    };
    let worker = || Worker {
        scanner: NeighborhoodScanner::new(num_entities),
        #[cfg(feature = "sanitize")]
        rescan: NeighborhoodScanner::new(num_entities),
        weights: Vec::new(),
        top: TopK::new(),
        neighborhoods: 0,
        edges: 0,
        emitted: 0,
    };
    let workers = if threads <= 1 || windows <= 1 {
        let mut state = worker();
        let mut out = Out(Dest::Sink(&mut sink));
        for i in 0..windows {
            window(&mut state, pivots(i), &mut out);
        }
        vec![state]
    } else {
        run_ordered(
            windows,
            threads.min(windows),
            worker,
            |state, i| {
                // Neighboring windows emit about as much as each other, so
                // the last one's size spares this one its regrowth.
                let mut buffer = Vec::with_capacity(state.emitted);
                window(state, pivots(i), &mut Out(Dest::Window(&mut buffer)));
                state.emitted = buffer.len();
                buffer
            },
            |buffer| buffer.into_iter().for_each(&mut sink),
        )
    };
    Swept {
        neighborhoods: workers.iter().map(|w| w.neighborhoods).sum(),
        worker_edges: workers.iter().map(|w| w.edges).collect(),
    }
}

/// The weighted blocking graph as something to sweep: which graph, which
/// weights, which edge-weighting algorithm, how many workers. Every pruning
/// scheme takes one and is written once against it.
///
/// [`WeightingImpl::Original`] enumerates edges block by block, not pivot by
/// pivot, so it has no windows: it always runs inline, as one window, and
/// ignores the thread count.
#[derive(Debug, Clone, Copy)]
pub struct Sweep<'a, 'b> {
    ctx: &'a GraphContext<'b>,
    weigher: &'a EdgeWeigher<'a, 'b>,
    imp: WeightingImpl,
    threads: usize,
}

impl<'a, 'b> Sweep<'a, 'b> {
    /// A sweep of `ctx`'s graph under `weigher` on up to `threads` workers
    /// (`0` = auto-detect, as in [`crate::PipelineConfig`]).
    pub fn new(
        ctx: &'a GraphContext<'b>,
        weigher: &'a EdgeWeigher<'a, 'b>,
        imp: WeightingImpl,
        threads: usize,
    ) -> Self {
        Sweep { ctx, weigher, imp, threads: resolve_threads(threads) }
    }

    /// The graph being swept.
    pub fn ctx(&self) -> &'a GraphContext<'b> {
        self.ctx
    }

    /// The pivots whose group in [`Sweep::edges`] is their whole
    /// neighborhood — the ids, order and weight bits [`Sweep::neighborhoods`]
    /// hands them. Under [`WeightingImpl::Optimized`] on Clean-Clean ER that
    /// is the first side, `0..split`: every neighbor of a first-side pivot is
    /// on the second side, above it, so its edge-sweep scan
    /// ([`ScanScope::GreaterOnly`]) is its [`ScanScope::All`] scan. Otherwise
    /// it is none: a Dirty group lacks the pivot's smaller neighbors, and an
    /// Original group is one edge.
    pub fn whole_groups(&self) -> Range<u32> {
        match (self.imp, self.ctx.kind()) {
            (WeightingImpl::Optimized, ErKind::CleanClean) => 0..self.ctx.split() as u32,
            _ => 0..0,
        }
    }

    /// Calls `visit(out, top, pivot, neighbors, weights)` once per pivot with
    /// the distinct edges charged to it — every neighbor `j > pivot`, in
    /// first-co-occurrence order, `neighbors[k]` of weight `weights[k]` — and
    /// `sink` with whatever the visits emit, in the sequential sweep's order.
    /// Flattened, the groups are the stream `for_each_edge` yields, and their
    /// shape is the one [`Sweep::neighborhoods`] passes; a pivot in
    /// [`Sweep::whole_groups`] gets exactly its neighborhood. `top` is the
    /// sweeping thread's own [`TopK`], as [`Sweep::top_k`] selects in.
    ///
    /// Under [`WeightingImpl::Original`] the edges come in Algorithm 2's
    /// block order, each as a group of its own under its smaller endpoint.
    pub fn edges<I: Send, S: FnMut(I)>(
        &self,
        visit: impl Fn(&mut Out<'_, I, S>, &mut TopK, EntityId, &[u32], &[f64]) + Sync,
        mut sink: S,
    ) -> Swept {
        match self.imp {
            WeightingImpl::Original => {
                let mut out = Out(Dest::Sink(&mut sink));
                let mut top = TopK::new();
                let mut edges = 0u64;
                original::for_each_edge(self.ctx, self.weigher, |a, b, w| {
                    edges += 1;
                    visit(&mut out, &mut top, a, &[b.0], &[w]);
                });
                Swept { neighborhoods: 0, worker_edges: vec![edges] }
            }
            WeightingImpl::Optimized => Swept {
                neighborhoods: 0,
                ..self.pivot_windows(self.all(), ScanScope::GreaterOnly, visit, sink)
            },
        }
    }

    /// Calls `visit(out, pivot, neighbors, weights)` for every node in
    /// `pivots` with a non-empty neighborhood, and `sink` with whatever the
    /// visits emit, in the sequential sweep's order.
    pub fn neighborhoods<I: Send, S: FnMut(I)>(
        &self,
        pivots: Range<u32>,
        visit: impl Fn(&mut Out<'_, I, S>, EntityId, &[u32], &[f64]) + Sync,
        sink: S,
    ) -> Swept {
        match self.imp {
            WeightingImpl::Original => self.original_neighborhoods(pivots, visit, sink),
            WeightingImpl::Optimized => self.pivot_windows(
                pivots,
                ScanScope::All,
                |out, _, pivot, ids, weights| visit(out, pivot, ids, weights),
                sink,
            ),
        }
    }

    /// [`Sweep::neighborhoods`] through a top-`k` selection: calls
    /// `visit(out, pivot, kept)` for every node in `pivots` with a non-empty
    /// neighborhood, `kept` its `k` best neighbors ascending by id
    /// ([`TopK::select_ascending`]), and `sink` with whatever the visits
    /// emit, in the sequential sweep's order. The selection runs in the
    /// sweeping thread's own [`TopK`] — under [`WeightingImpl::Original`] one
    /// for the whole sweep — so a warm sweep allocates nothing per node.
    pub fn top_k<I: Send, S: FnMut(I)>(
        &self,
        k: usize,
        pivots: Range<u32>,
        visit: impl Fn(&mut Out<'_, I, S>, EntityId, &[u32]) + Sync,
        sink: S,
    ) -> Swept {
        match self.imp {
            WeightingImpl::Original => {
                let mut top = TopK::new();
                self.original_neighborhoods(
                    pivots,
                    |out, pivot, ids, weights| {
                        visit(out, pivot, top.select_ascending(pivot, ids, weights, k))
                    },
                    sink,
                )
            }
            WeightingImpl::Optimized => self.pivot_windows(
                pivots,
                ScanScope::All,
                |out, top, pivot, ids, weights| {
                    visit(out, pivot, top.select_ascending(pivot, ids, weights, k))
                },
                sink,
            ),
        }
    }

    /// Every pivot of the graph, `0..|E|`.
    pub(crate) fn all(&self) -> Range<u32> {
        0..self.ctx.num_entities() as u32
    }

    /// Algorithm 2's neighborhoods of `pivots`, inline as one window.
    fn original_neighborhoods<I, S: FnMut(I)>(
        &self,
        pivots: Range<u32>,
        mut visit: impl FnMut(&mut Out<'_, I, S>, EntityId, &[u32], &[f64]),
        mut sink: S,
    ) -> Swept {
        let mut out = Out(Dest::Sink(&mut sink));
        let (mut neighborhoods, mut edges) = (0u64, 0u64);
        original::for_each_neighborhood(self.ctx, self.weigher, pivots, |pivot, ids, weights| {
            neighborhoods += 1;
            edges += ids.len() as u64;
            visit(&mut out, pivot, ids, weights);
        });
        Swept { neighborhoods, worker_edges: vec![edges] }
    }

    /// The pivot loop over the windows of `pivots`, `visit` on every group it
    /// delivers under `scope` ([`optimized::groups_in`]), with the worker's
    /// [`TopK`].
    fn pivot_windows<I: Send, S: FnMut(I)>(
        &self,
        pivots: Range<u32>,
        scope: ScanScope,
        visit: impl Fn(&mut Out<'_, I, S>, &mut TopK, EntityId, &[u32], &[f64]) + Sync,
        sink: S,
    ) -> Swept {
        let (ctx, weigher) = (self.ctx, self.weigher);
        #[cfg(feature = "sanitize")]
        let whole = self.whole_groups();
        sweep_windows(
            ctx.num_entities(),
            pivots,
            self.threads,
            |worker, pivots, out| {
                #[cfg(feature = "sanitize")]
                let rescan = &mut worker.rescan;
                let Worker { scanner, weights, top, .. } = worker;
                let (hoods, edges) = optimized::groups_in(
                    ctx,
                    weigher,
                    scanner,
                    weights,
                    pivots,
                    scope,
                    |p, ids, ws| {
                        #[cfg(feature = "sanitize")]
                        if scope == ScanScope::GreaterOnly && whole.contains(&p.0) {
                            crate::sanitize::check_whole_group(ctx, weigher, rescan, p, ids, ws);
                        }
                        visit(out, top, p, ids, ws)
                    },
                );
                worker.neighborhoods += hoods;
                worker.edges += edges;
            },
            sink,
        )
    }

    /// The sum of all edge weights and the number of edges. The sum is
    /// *defined* as each window's own sum (its edges' weights added one by
    /// one in sweep order), added in window order: the same additions in the
    /// same order on one thread or sixteen, hence the same `f64`.
    pub fn weight_sum(&self) -> (f64, u64) {
        let (ctx, weigher) = (self.ctx, self.weigher);
        let (mut sum, mut count) = (0.0f64, 0u64);
        let mut add = |(window_sum, edges): (f64, u64)| {
            sum += window_sum;
            count += edges;
        };
        match self.imp {
            WeightingImpl::Original => {
                let (mut window_sum, mut edges) = (0.0f64, 0u64);
                original::for_each_edge(ctx, weigher, |_, _, w| {
                    window_sum += w;
                    edges += 1;
                });
                add((window_sum, edges));
            }
            WeightingImpl::Optimized => {
                sweep_windows(
                    ctx.num_entities(),
                    self.all(),
                    self.threads,
                    |worker, pivots, out| {
                        let mut window_sum = 0.0f64;
                        let (_, edges) = optimized::pivots_in(
                            ctx,
                            weigher,
                            &mut worker.scanner,
                            &mut window_sum,
                            pivots,
                            ScanScope::GreaterOnly,
                            |sum, _, _, w| *sum += w,
                            |_, _, _| {},
                        );
                        out.emit((window_sum, edges));
                    },
                    add,
                );
            }
        }
        (sum, count)
    }
}

/// The global mean edge weight — the WEP threshold — on up to `threads`
/// workers; bit-equal for every thread count ([`Sweep::weight_sum`]).
pub fn mean_edge_weight(
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    threads: usize,
) -> Option<f64> {
    let (sum, count) = Sweep::new(ctx, weigher, WeightingImpl::Optimized, threads).weight_sum();
    (count > 0).then(|| sum / count as f64)
}

/// The windows in flight between the sweeping threads and the drain.
struct Queue<T> {
    /// The next window to hand out.
    next: usize,
    /// Windows the caller has taken; the one it wants next has this index.
    drained: usize,
    /// Finished windows `drained..drained + slots.len()`, window `i` in slot
    /// `i % slots.len()`.
    slots: Vec<Option<T>>,
    /// Set when the sweep is over or abandoned: nothing more is handed out.
    closed: bool,
    /// Whether the caller sleeps on `head`, and how many workers sleep on
    /// `room` — so that nobody pays a wake-up call for a thread that is busy.
    caller_waits: bool,
    workers_wait: usize,
}

impl<T> Queue<T> {
    /// Hands out the next window, if there is one within run-ahead of the
    /// drain.
    fn claim(&mut self, windows: usize) -> Option<usize> {
        (self.next < windows && self.next < self.drained + self.slots.len()).then(|| {
            self.next += 1;
            self.next - 1
        })
    }
}

/// What the calling thread does next.
enum Step<T> {
    /// Hand the next window in order to the sink.
    Drain(T),
    /// That window is still being swept: sweep this one meanwhile.
    Sweep(usize),
    /// Every window is drained, or the sweep was abandoned.
    Done,
}

struct Shared<T> {
    queue: Mutex<Queue<T>>,
    /// The caller waits here for window `drained`.
    head: Condvar,
    /// Workers wait here for the drain to come within run-ahead.
    room: Condvar,
}

impl<T> Shared<T> {
    /// No thread panics while it holds the lock (visitors and the sink run
    /// outside it), so a poisoned queue is still a consistent one.
    fn lock(&self) -> MutexGuard<'_, Queue<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Worker side: the next window to sweep, once the drain is within
    /// run-ahead of it. `None` when every window is claimed or the sweep is
    /// closed.
    fn claim(&self, windows: usize) -> Option<usize> {
        let mut queue = self.lock();
        loop {
            if queue.closed || queue.next == windows {
                return None;
            }
            if let Some(window) = queue.claim(windows) {
                return Some(window);
            }
            queue.workers_wait += 1;
            queue = self.room.wait(queue).unwrap_or_else(PoisonError::into_inner);
            queue.workers_wait -= 1;
        }
    }

    /// Hands over a finished window.
    fn deposit(&self, window: usize, result: T) {
        let mut queue = self.lock();
        let slot = window % queue.slots.len();
        queue.slots[slot] = Some(result);
        if window == queue.drained && queue.caller_waits {
            self.head.notify_one();
        }
    }

    /// Caller side: drain the head window if it is finished, else sweep one
    /// like any worker, else — run-ahead exhausted or nothing left to claim —
    /// wait for the head.
    fn step(&self, windows: usize) -> Step<T> {
        let mut queue = self.lock();
        loop {
            if queue.closed || queue.drained == windows {
                return Step::Done;
            }
            let slot = queue.drained % queue.slots.len();
            if let Some(result) = queue.slots[slot].take() {
                queue.drained += 1;
                if queue.workers_wait > 0 {
                    self.room.notify_one();
                }
                return Step::Drain(result);
            }
            if let Some(window) = queue.claim(windows) {
                return Step::Sweep(window);
            }
            queue.caller_waits = true;
            queue = self.head.wait(queue).unwrap_or_else(PoisonError::into_inner);
            queue.caller_waits = false;
        }
    }

    /// Ends the sweep and wakes every parked thread to see it.
    fn close(&self) {
        self.lock().closed = true;
        self.head.notify_all();
        self.room.notify_all();
    }
}

/// Closes the sweep if its thread unwinds, so nobody waits on a thread that
/// will never deposit or drain again.
struct CloseOnPanic<'a, T>(&'a Shared<T>);

impl<T> Drop for CloseOnPanic<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

/// The driver proper: `work(state, i)` for every window `i` in `0..windows`
/// on `threads` threads — the caller and `threads − 1` spawned workers —
/// each with its own `worker()` state; `drain` receives the results on the
/// calling thread in window order. The caller drains whenever the next
/// window in order is finished and sweeps windows itself whenever it is
/// not, so `threads` threads are busy and none sleeps per window. No window
/// beyond the one being drained plus `threads × RUN_AHEAD` is ever started.
/// Returns the states of the threads that swept. A panic in `work` or
/// `drain` resumes on the caller once every thread has been joined.
pub(crate) fn run_ordered<W: Send, T: Send>(
    windows: usize,
    threads: usize,
    worker: impl Fn() -> W + Sync,
    work: impl Fn(&mut W, usize) -> T + Sync,
    mut drain: impl FnMut(T),
) -> Vec<W> {
    let shared = Shared {
        queue: Mutex::new(Queue {
            next: 0,
            drained: 0,
            slots: (0..threads * RUN_AHEAD).map(|_| None).collect(),
            closed: false,
            caller_waits: false,
            workers_wait: 0,
        }),
        head: Condvar::new(),
        room: Condvar::new(),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads)
            .map(|_| {
                scope.spawn(|| {
                    let _guard = CloseOnPanic(&shared);
                    let mut state = worker();
                    while let Some(window) = shared.claim(windows) {
                        let result = work(&mut state, window);
                        shared.deposit(window, result);
                    }
                    state
                })
            })
            .collect();
        let mut own = None;
        {
            let _guard = CloseOnPanic(&shared);
            loop {
                match shared.step(windows) {
                    Step::Drain(result) => drain(result),
                    Step::Sweep(window) => {
                        let result = work(own.get_or_insert_with(&worker), window);
                        shared.deposit(window, result);
                    }
                    Step::Done => break,
                }
            }
        }
        shared.close();
        let spawned =
            handles.into_iter().map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        own.into_iter().chain(spawned).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PruningScheme;
    use crate::weights::WeightingScheme;
    use er_model::{Block, BlockCollection, ErKind};
    use mb_observe::{Counter, RunReport, Stage};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    /// Several windows, the last one partial, with a few long-range blocks
    /// so windows see non-local neighbors.
    fn large_fixture() -> BlockCollection {
        let n = WINDOW_PIVOTS * 6 + 37;
        let mut blocks = Vec::new();
        for i in (0..n - 4).step_by(3) {
            blocks.push(Block::dirty(ids(&[i, i + 1, i + 2, i + 4])));
        }
        blocks.push(Block::dirty(ids(&[0, n / 2, n - 1])));
        blocks.push(Block::dirty(ids(&[3, n / 3, 2 * n / 3])));
        BlockCollection::new(ErKind::Dirty, n as usize, blocks)
    }

    fn run_scheme(
        scheme: PruningScheme,
        sweep: &Sweep<'_, '_>,
    ) -> (RunReport, Vec<(EntityId, EntityId)>) {
        let mut report = RunReport::new("sweep");
        let mut out = Vec::new();
        let sink = |a: EntityId, b: EntityId| out.push((a, b));
        match scheme {
            PruningScheme::Cep => crate::prune::cep(sweep, &mut report, sink),
            PruningScheme::Cnp => crate::prune::cnp(sweep, &mut report, sink),
            PruningScheme::Wep => crate::prune::wep(sweep, &mut report, sink),
            PruningScheme::Wnp => crate::prune::wnp(sweep, &mut report, sink),
            PruningScheme::RedefinedCnp => crate::prune::redefined_cnp(sweep, &mut report, sink),
            PruningScheme::ReciprocalCnp => crate::prune::reciprocal_cnp(sweep, &mut report, sink),
            PruningScheme::RedefinedWnp => crate::prune::redefined_wnp(sweep, &mut report, sink),
            PruningScheme::ReciprocalWnp => crate::prune::reciprocal_wnp(sweep, &mut report, sink),
        }
        (report, out)
    }

    /// The windows tile `0..n` in order for every size around a window
    /// boundary, whatever the thread count.
    #[test]
    fn windows_tile_the_pivot_range_in_order() {
        for n in [0usize, 1, 127, 128, 129, 1000, 128 * 40] {
            for threads in [1, 2, 3, 8, 100] {
                let mut seen: Vec<Range<u32>> = Vec::new();
                sweep_windows(
                    n,
                    0..n as u32,
                    threads,
                    |_, pivots, out| out.emit(pivots),
                    |r| seen.push(r),
                );
                assert_eq!(seen.len(), n.div_ceil(WINDOW_PIVOTS as usize), "n={n} t={threads}");
                let mut next = 0;
                for r in seen {
                    assert_eq!(r.start, next, "n={n} t={threads}");
                    assert!(r.end - r.start <= WINDOW_PIVOTS && r.end > r.start);
                    next = r.end;
                }
                assert_eq!(next as usize, n, "n={n} t={threads}");
            }
        }
    }

    /// The windows tile `start..n` in order for every start around a window
    /// boundary, at one to four threads.
    #[test]
    fn windows_tile_a_pivot_range_from_its_start() {
        let n = WINDOW_PIVOTS * 5 + 9;
        for start in [0, 1, 63, 64, 65, 200, n - 1] {
            for threads in 1..=4 {
                let mut seen: Vec<Range<u32>> = Vec::new();
                sweep_windows(
                    n as usize,
                    start..n,
                    threads,
                    |_, pivots, out| out.emit(pivots),
                    |r| seen.push(r),
                );
                assert_eq!(
                    seen.len() as u32,
                    (n - start).div_ceil(WINDOW_PIVOTS),
                    "{start} x{threads}"
                );
                let mut next = start;
                for r in seen {
                    assert_eq!(r.start, next, "{start} x{threads}");
                    assert!(r.end > r.start && r.end - r.start <= WINDOW_PIVOTS);
                    next = r.end;
                }
                assert_eq!(next, n, "{start} x{threads}");
            }
        }
    }

    /// A range that starts at `|E|` is swept by the caller's one state alone,
    /// with no window visited, and a sweep over it finds no neighborhood.
    #[test]
    fn a_range_starting_at_the_end_spawns_nothing_and_visits_nothing() {
        let n = WINDOW_PIVOTS as usize * 4;
        for threads in [1, 2, 4, 16] {
            let visits = AtomicUsize::new(0);
            let swept = sweep_windows(
                n,
                n as u32..n as u32,
                threads,
                |_, _, out| {
                    visits.fetch_add(1, SeqCst);
                    out.emit(())
                },
                |()| panic!("nothing was visited, so nothing is drained"),
            );
            assert_eq!(visits.load(SeqCst), 0, "x{threads}");
            assert_eq!(swept, Swept { neighborhoods: 0, worker_edges: vec![0] }, "x{threads}");
        }
        let blocks = large_fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let end = ctx.num_entities() as u32;
        for imp in [WeightingImpl::Optimized, WeightingImpl::Original] {
            let sweep = Sweep::new(&ctx, &weigher, imp, 4);
            let swept = sweep.neighborhoods(end..end, |_, _, _, _| panic!("visited"), |()| {});
            assert_eq!(swept.neighborhoods + swept.edges(), 0, "{imp}");
        }
    }

    /// A 2-entity collection on a 16-thread config is one window: it runs on
    /// the calling thread, with one scanner.
    #[test]
    fn an_input_of_one_window_spawns_nothing() {
        let caller = std::thread::current().id();
        let swept = sweep_windows(
            2,
            0..2,
            16,
            |_, _, out| out.emit(std::thread::current().id()),
            |id| assert_eq!(id, caller),
        );
        assert_eq!(swept.worker_edges.len(), 1);
    }

    /// The Clean-Clean counterpart: left ids `0..split`, right ids
    /// `split..2·split`, several windows of each side.
    fn large_clean_fixture() -> (BlockCollection, usize) {
        let split = WINDOW_PIVOTS * 3 + 11;
        let mut blocks = Vec::new();
        for i in (0..split - 3).step_by(2) {
            blocks.push(Block::clean_clean(
                ids(&[i, i + 1, i + 3]),
                ids(&[split + i, split + i + 2]),
            ));
        }
        blocks.push(Block::clean_clean(ids(&[0, split / 2]), ids(&[2 * split - 1, split + 7])));
        blocks.push(Block::clean_clean(ids(&[5, split - 1]), ids(&[split, 2 * split - 3])));
        (BlockCollection::new(ErKind::CleanClean, 2 * split as usize, blocks), split as usize)
    }

    /// The edge sweep's groups, flattened, are `for_each_edge`'s per-edge
    /// stream — order and weight bits included — for both implementations
    /// on Dirty and Clean-Clean graphs at every thread count. Every group is
    /// non-empty with each neighbor above its pivot; the Optimized sweep
    /// delivers one group per pivot, ascending, the Original one group per
    /// edge.
    #[test]
    fn edge_sweep_matches_the_sequential_sweep_for_every_thread_count() {
        let dirty = large_fixture();
        let (clean, split) = large_clean_fixture();
        for (blocks, split) in [(&dirty, dirty.num_entities()), (&clean, split)] {
            let ctx = GraphContext::new(blocks, split);
            for scheme in WeightingScheme::ALL {
                let weigher = EdgeWeigher::new(scheme, &ctx);
                for imp in [WeightingImpl::Optimized, WeightingImpl::Original] {
                    let mut per_edge = Vec::new();
                    crate::weighting::for_each_edge(imp, &ctx, &weigher, |a, b, w| {
                        per_edge.push((a.0, b.0, w.to_bits()))
                    });
                    assert!(!per_edge.is_empty());
                    for threads in [1, 2, 3, 8] {
                        let what =
                            format!("{:?} {} {imp} x{threads}", blocks.kind(), scheme.name());
                        let mut groups = Vec::new();
                        let swept = Sweep::new(&ctx, &weigher, imp, threads).edges(
                            |out, _, pivot, ids, weights| {
                                let edges = ids.iter().zip(weights);
                                out.emit((pivot.0, edges.map(|(&j, w)| (j, w.to_bits())).collect()))
                            },
                            |group: (u32, Vec<(u32, u64)>)| groups.push(group),
                        );
                        let flat: Vec<_> = groups
                            .iter()
                            .flat_map(|(i, edges)| edges.iter().map(|&(j, w)| (*i, j, w)))
                            .collect();
                        assert_eq!(flat, per_edge, "{what}");
                        assert_eq!(swept.edges(), per_edge.len() as u64, "{what}");
                        assert_eq!(swept.neighborhoods, 0, "{what}");
                        for (i, edges) in &groups {
                            assert!(
                                !edges.is_empty() && edges.iter().all(|&(j, _)| j > *i),
                                "{what}"
                            );
                        }
                        match imp {
                            WeightingImpl::Optimized => {
                                assert!(groups.windows(2).all(|g| g[0].0 < g[1].0), "{what}");
                                assert!((1..=threads).contains(&swept.worker_edges.len()));
                            }
                            WeightingImpl::Original => {
                                assert!(groups.iter().all(|(_, edges)| edges.len() == 1), "{what}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// The edge sweep's group of a pivot in [`Sweep::whole_groups`] is the
    /// pivot's neighborhood — ids, order and weight bits — under every
    /// weighting scheme at every thread count. The whole groups are the first
    /// Clean-Clean side under Optimized weighting and none elsewhere.
    #[test]
    fn a_whole_group_is_its_pivots_neighborhood() {
        type Group = (u32, Vec<(u32, u64)>);
        let group = |pivot: EntityId, ids: &[u32], weights: &[f64]| -> Group {
            (pivot.0, ids.iter().zip(weights).map(|(&j, w)| (j, w.to_bits())).collect())
        };
        let dirty = large_fixture();
        let (clean, split) = large_clean_fixture();
        for (blocks, split) in [(&dirty, dirty.num_entities()), (&clean, split)] {
            let ctx = GraphContext::new(blocks, split);
            let clean = blocks.kind() == ErKind::CleanClean;
            for scheme in WeightingScheme::ALL {
                let weigher = EdgeWeigher::new(scheme, &ctx);
                let original = Sweep::new(&ctx, &weigher, WeightingImpl::Original, 1);
                assert!(original.whole_groups().is_empty());
                let mut hoods = Vec::new();
                let one = Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1);
                one.neighborhoods(
                    one.all(),
                    |out, p, ids, ws| out.emit(group(p, ids, ws)),
                    |g| hoods.push(g),
                );
                let whole = one.whole_groups();
                assert_eq!(whole, 0..if clean { split as u32 } else { 0 }, "{}", scheme.name());
                let want: Vec<Group> =
                    hoods.into_iter().filter(|(p, _)| whole.contains(p)).collect();
                assert_eq!(!want.is_empty(), clean);
                for threads in [1, 2, 4] {
                    let sweep = Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, threads);
                    let mut got = Vec::new();
                    sweep.edges(
                        |out, _, p, ids, ws| {
                            if whole.contains(&p.0) {
                                out.emit(group(p, ids, ws))
                            }
                        },
                        |g| got.push(g),
                    );
                    assert_eq!(got, want, "{:?} {} x{threads}", blocks.kind(), scheme.name());
                }
            }
        }
    }

    /// What the two-phase schemes weigh, at every thread count. On
    /// Clean-Clean ER under Optimized weighting phase 1 scans the second side
    /// alone — each edge once — and the edge sweep weighs each edge once
    /// more: twice in all. On Dirty ER, and under Original weighting, phase 1
    /// scans every neighborhood and meets each edge from both ends: three
    /// times in all.
    #[test]
    fn a_two_phase_scheme_sweeps_the_first_clean_clean_side_once() {
        let two_phase = [
            PruningScheme::RedefinedCnp,
            PruningScheme::ReciprocalCnp,
            PruningScheme::RedefinedWnp,
            PruningScheme::ReciprocalWnp,
        ];
        let dirty = large_fixture();
        let (clean, split) = large_clean_fixture();
        for (blocks, split) in [(&dirty, dirty.num_entities()), (&clean, split)] {
            let ctx = GraphContext::new(blocks, split);
            for scheme in WeightingScheme::ALL {
                let weigher = EdgeWeigher::new(scheme, &ctx);
                let mut edges = 0u64;
                optimized::for_each_edge(&ctx, &weigher, |_, _, _| edges += 1);
                for imp in [WeightingImpl::Optimized, WeightingImpl::Original] {
                    let once =
                        blocks.kind() == ErKind::CleanClean && imp == WeightingImpl::Optimized;
                    // The non-empty neighborhoods phase 1 has to scan.
                    let mut scanned = 0u64;
                    optimized::for_each_neighborhood(&ctx, &weigher, |p, _, _| {
                        scanned += u64::from(!(once && ctx.is_first(p)))
                    });
                    let phase1 = if once { edges } else { 2 * edges };
                    for pruning in two_phase {
                        for threads in [1, 2, 4] {
                            let sweep = Sweep::new(&ctx, &weigher, imp, threads);
                            let (report, _) = run_scheme(pruning, &sweep);
                            let what = format!(
                                "{:?} {} {imp} {pruning} x{threads}",
                                blocks.kind(),
                                scheme.name()
                            );
                            let weighting = &report.stage(Stage::EdgeWeighting).unwrap().counters;
                            assert_eq!(
                                weighting.get(Counter::NeighborhoodsScanned),
                                scanned,
                                "{what}"
                            );
                            assert_eq!(weighting.get(Counter::EdgesWeighed), phase1, "{what}");
                            assert_eq!(
                                report.counter_total(Counter::EdgesWeighed),
                                phase1 + edges,
                                "{what}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every pruning scheme's output — order included — and every counter
    /// total is the one-thread run's, at every thread count.
    #[test]
    fn every_scheme_is_thread_count_invariant_with_invariant_counters() {
        let blocks = large_fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Ecbs, &ctx);
        for scheme in PruningScheme::ALL {
            let one = Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1);
            let (seq_report, seq_out) = run_scheme(scheme, &one);
            assert!(!seq_out.is_empty(), "{}", scheme.name());
            for threads in [2, 3, 4, 8, 16] {
                let sweep = Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, threads);
                let (report, out) = run_scheme(scheme, &sweep);
                assert_eq!(out, seq_out, "{} output differs at {threads} threads", scheme.name());
                for c in Counter::ALL {
                    assert_eq!(
                        report.counter_total(c),
                        seq_report.counter_total(c),
                        "{}: counter {} differs at {threads} threads",
                        scheme.name(),
                        c.name()
                    );
                }
            }
        }
    }

    #[test]
    fn every_scheme_handles_an_empty_graph() {
        let blocks = BlockCollection::new(ErKind::Dirty, 4, vec![]);
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        assert_eq!(mean_edge_weight(&ctx, &weigher, 4), None);
        let sweep = Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 4);
        for scheme in PruningScheme::ALL {
            assert!(run_scheme(scheme, &sweep).1.is_empty(), "{}", scheme.name());
        }
    }

    /// The mean is the same bits at every thread count, and within rounding
    /// of the plain running sum it replaced.
    #[test]
    fn mean_weight_is_one_value_for_every_thread_count() {
        let blocks = large_fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Js, &ctx);
        let (mut sum, mut count) = (0.0, 0u64);
        optimized::for_each_edge(&ctx, &weigher, |_, _, w| {
            sum += w;
            count += 1;
        });
        let one = mean_edge_weight(&ctx, &weigher, 1).unwrap();
        assert!((one - sum / count as f64).abs() < 1e-12);
        for threads in [2, 3, 4, 8, 16] {
            let mean = mean_edge_weight(&ctx, &weigher, threads).unwrap();
            assert_eq!(mean.to_bits(), one.to_bits(), "{threads} threads");
        }
    }

    /// Counts the worker states alive, so a test can tell that every worker
    /// thread ran to its end.
    #[derive(Debug)]
    struct Alive<'a>(&'a AtomicUsize);

    impl<'a> Alive<'a> {
        fn new(alive: &'a AtomicUsize) -> Self {
            alive.fetch_add(1, SeqCst);
            Alive(alive)
        }
    }

    impl Drop for Alive<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, SeqCst);
        }
    }

    /// A flag set per window, with a way to wait for one.
    struct Done {
        windows: Mutex<Vec<bool>>,
        changed: Condvar,
    }

    impl Done {
        fn new(windows: usize) -> Self {
            Done { windows: Mutex::new(vec![false; windows]), changed: Condvar::new() }
        }

        fn mark(&self, window: usize) {
            self.windows.lock().unwrap()[window] = true;
            self.changed.notify_all();
        }

        fn wait_until(&self, ready: impl Fn(&[bool]) -> bool) {
            let mut windows = self.windows.lock().unwrap();
            while !ready(&windows) {
                windows = self.changed.wait(windows).unwrap();
            }
        }
    }

    /// Every even window is held back until its odd successor has finished,
    /// so windows complete as 1, 0, 3, 2, … — and are still drained as 0, 1,
    /// 2, 3, …: drain order is window order, not completion order.
    #[test]
    fn drain_order_is_window_order_not_completion_order() {
        let windows = 41;
        for workers in [2, 3, 8] {
            let done = Done::new(windows);
            let completed = Mutex::new(Vec::new());
            let mut drained = Vec::new();
            run_ordered(
                windows,
                workers,
                || (),
                |(), i| {
                    if i % 2 == 0 && i + 1 < windows {
                        done.wait_until(|d| d[i + 1]);
                    }
                    completed.lock().unwrap().push(i);
                    done.mark(i);
                    i
                },
                |i| drained.push(i),
            );
            assert_eq!(drained, (0..windows).collect::<Vec<_>>(), "{workers} workers");
            let completed = completed.into_inner().unwrap();
            let position = |w: usize| completed.iter().position(|&c| c == w).unwrap();
            for even in (0..windows - 1).step_by(2) {
                assert!(position(even + 1) < position(even), "window {even} was not held back");
            }
        }
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload.downcast::<&str>().map(|s| s.to_string()).unwrap_or_default(),
        }
    }

    /// A panic in an edge sweep's visitor, on a worker and many windows
    /// into the sweep, reaches the caller with its message; every worker has
    /// exited by then.
    #[test]
    fn a_panicking_visitor_unwinds_to_the_caller() {
        let blocks = large_fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Js, &ctx);
        let poisoned = EntityId(WINDOW_PIVOTS * 4 + 5);
        for threads in [2, 4] {
            let sweep = Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, threads);
            let mut seen = 0u64;
            let caught = catch_unwind(AssertUnwindSafe(|| {
                sweep.edges(
                    |out, _, pivot, ids, _| {
                        assert!(pivot != poisoned, "visitor refused pivot {pivot}");
                        ids.iter().for_each(|&j| out.emit((pivot, j)));
                    },
                    |_| seen += 1,
                )
            }));
            let message = panic_message(caught.expect_err("the sweep swallowed the panic"));
            assert!(message.contains("visitor refused pivot"), "{message}");
            // The sink saw a prefix of the stream at most.
            let mut before = 0u64;
            optimized::for_each_edge(&ctx, &weigher, |a, _, _| before += u64::from(a < poisoned));
            assert!(seen <= before, "{seen} edges drained, {before} precede the panic");
        }
    }

    /// The same at the driver's own level, with the worker states counted.
    #[test]
    fn a_panicking_window_leaves_no_worker_behind() {
        let alive = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_ordered(
                500,
                4,
                || Alive::new(&alive),
                |_, i| assert!(i != 123, "window {i} failed"),
                |()| {},
            )
        }));
        assert_eq!(panic_message(caught.expect_err("panic lost")), "window 123 failed");
        assert_eq!(alive.load(SeqCst), 0);
    }

    /// The caller's sink panics on the first window while the workers have
    /// run as far ahead as back-pressure lets them — the window being
    /// drained plus `workers × RUN_AHEAD` — and are parked (or about to
    /// park) on it: the panic unwinds, the workers exit, and no window past
    /// that bound was ever started.
    #[test]
    fn a_panicking_sink_releases_workers_parked_on_back_pressure() {
        for workers in [2, 4] {
            let (windows, ahead) = (200, 1 + workers * RUN_AHEAD);
            let alive = AtomicUsize::new(0);
            let done = Done::new(windows);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_ordered(
                    windows,
                    workers,
                    || Alive::new(&alive),
                    |_, i| done.mark(i),
                    |()| {
                        done.wait_until(|d| d.iter().filter(|&&d| d).count() == ahead);
                        panic!("sink failed");
                    },
                )
            }));
            assert_eq!(panic_message(caught.expect_err("panic lost")), "sink failed");
            assert_eq!(alive.load(SeqCst), 0, "{workers} workers");
            let started = done.windows.lock().unwrap().clone();
            assert!(started[..ahead].iter().all(|&d| d) && !started[ahead..].iter().any(|&d| d));
        }
    }
}
