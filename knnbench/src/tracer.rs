//! The benchmark's span recorder: a [`PhaseObserver`] and
//! [`TimelineHooks`] implementation that stamps every layer span the
//! pipelines report and folds it into its worker's lane.
//!
//! One `CallTrace` covers one search call. Spans are not kept one by
//! one (a `batch-k32` call reports about 50 000 of them); each lane
//! keeps, per layer, the busy nanoseconds and span count, plus the
//! first span start and last span end, which is all the per-layer
//! metrics need. A lane is written only by its own worker thread, so
//! the atomics are uncontended and `Relaxed` publishes nothing else:
//! the pool joins before the lanes are read.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use knn::{Phase, PhaseObserver};
use trace::TimelineHooks;

/// The layers a span can belong to.
#[derive(Clone, Copy)]
pub enum Layer {
    Fill = 0,
    Select = 1,
    Merge = 2,
}

pub const LAYERS: usize = 3;

fn layer_of(phase: Phase) -> Option<Layer> {
    match phase {
        Phase::RowFill | Phase::TileFill => Some(Layer::Fill),
        Phase::RowSelect | Phase::TileSelect => Some(Layer::Select),
        Phase::TileMerge => Some(Layer::Merge),
        // `Query` encloses a query's fill and select; counting it would
        // charge that time twice.
        Phase::Query => None,
    }
}

thread_local! {
    /// Pool worker index of the current thread. Set by
    /// `TimelineHooks::worker_started`; the calling thread runs worker 0
    /// and sequential paths never announce a worker, so 0 is the default.
    static WORKER: Cell<usize> = const { Cell::new(0) };
}

struct Lane {
    busy_ns: [AtomicU64; LAYERS],
    spans: [AtomicU64; LAYERS],
    first_ns: AtomicU64,
    last_ns: AtomicU64,
    queries: AtomicU64,
    started: AtomicU64,
}

impl Lane {
    fn new() -> Self {
        Lane {
            busy_ns: Default::default(),
            spans: Default::default(),
            first_ns: AtomicU64::new(u64::MAX),
            last_ns: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            started: AtomicU64::new(0),
        }
    }
}

/// Spans of one search call, relative to the call's start.
pub struct CallTrace {
    epoch: Instant,
    lanes: Vec<Lane>,
    blocks: AtomicU64,
    pushed: AtomicU64,
    rejected: AtomicU64,
    misattributed: AtomicU64,
}

/// One lane of a finished call.
#[derive(Clone, Copy, Debug)]
pub struct LaneRecord {
    pub busy_ns: [u64; LAYERS],
    pub spans: [u64; LAYERS],
    /// First span start and last span end; `None` if the lane ran no span.
    pub active: Option<(u64, u64)>,
    pub queries: u64,
}

impl LaneRecord {
    pub fn busy(&self) -> u64 {
        self.busy_ns.iter().sum()
    }
}

/// A finished call: its wall time and one record per pool worker.
#[derive(Clone, Debug)]
pub struct CallRecord {
    pub wall_ns: u64,
    pub lanes: Vec<LaneRecord>,
    pub blocks: u64,
    pub pushed: u64,
    pub rejected: u64,
    /// `query_worker` reports that disagreed with the thread they fired on.
    pub misattributed: u64,
}

impl CallTrace {
    /// A recorder for a call that runs on at most `workers` threads.
    /// The call span starts now.
    pub fn start(workers: usize) -> Self {
        CallTrace {
            lanes: (0..workers.max(1)).map(|_| Lane::new()).collect(),
            blocks: AtomicU64::new(0),
            pushed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            misattributed: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lane(&self) -> &Lane {
        let w = WORKER.with(Cell::get);
        self.lanes
            .get(w)
            .expect("the pipeline ran more workers than it was asked for")
    }

    /// Close the call span. Only lanes that announced themselves (or
    /// lane 0, which the calling thread always is) count as workers.
    pub fn finish(self) -> CallRecord {
        let wall_ns = self.now_ns();
        let lanes = self
            .lanes
            .iter()
            .enumerate()
            .filter(|(w, l)| *w == 0 || l.started.load(Relaxed) > 0)
            .map(|(_, l)| {
                let first = l.first_ns.load(Relaxed);
                LaneRecord {
                    busy_ns: std::array::from_fn(|i| l.busy_ns[i].load(Relaxed)),
                    spans: std::array::from_fn(|i| l.spans[i].load(Relaxed)),
                    active: (first != u64::MAX).then(|| (first, l.last_ns.load(Relaxed))),
                    queries: l.queries.load(Relaxed),
                }
            })
            .collect();
        CallRecord {
            wall_ns,
            lanes,
            blocks: self.blocks.load(Relaxed),
            pushed: self.pushed.load(Relaxed),
            rejected: self.rejected.load(Relaxed),
            misattributed: self.misattributed.load(Relaxed),
        }
    }
}

impl PhaseObserver for CallTrace {
    fn timed<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let Some(layer) = layer_of(phase) else {
            return f();
        };
        let t0 = self.now_ns();
        let out = f();
        let t1 = self.now_ns();
        let lane = self.lane();
        lane.busy_ns[layer as usize].fetch_add(t1 - t0, Relaxed);
        lane.spans[layer as usize].fetch_add(1, Relaxed);
        lane.first_ns.fetch_min(t0, Relaxed);
        lane.last_ns.fetch_max(t1, Relaxed);
        out
    }

    fn merger_stats(&self, pushed: u64, rejected: u64) {
        self.pushed.store(pushed, Relaxed);
        self.rejected.store(rejected, Relaxed);
    }

    fn query_worker(&self, _qi: usize, worker: usize) {
        if WORKER.with(Cell::get) != worker {
            self.misattributed.fetch_add(1, Relaxed);
        }
        if let Some(lane) = self.lanes.get(worker) {
            lane.queries.fetch_add(1, Relaxed);
        }
    }
}

impl TimelineHooks for CallTrace {
    fn worker_started(&self, worker: usize) {
        WORKER.with(|w| w.set(worker));
        if let Some(lane) = self.lanes.get(worker) {
            lane.started.fetch_add(1, Relaxed);
        }
    }

    fn block_claimed(&self, _worker: usize, _block: usize) {
        self.blocks.fetch_add(1, Relaxed);
    }
}
