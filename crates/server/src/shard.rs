//! The sharded worker pool behind the event loop.
//!
//! Requests carry an *affinity digest* (the snapshot content address
//! when one is derivable, a session-id hash for `session/*` ops, zero
//! when stateless). The digest picks the shard queue, so requests for
//! the same snapshot land on the same queue back-to-back and re-use
//! whatever that worker's caches (store LRU position, engine memo
//! tables, allocator locality) already hold — the CFL-reachability
//! economics: individual queries are cheap, so throughput comes from
//! affinity, not per-query cleverness.
//!
//! Workers never block on ordering: the per-connection gate lives in
//! [`crate::conn::Conn`], which only dispatches a task once it is
//! allowed to run. A worker loop is therefore just: pop, execute, post
//! the completion, wake the event loop. Shard and worker counts are
//! independent — each shard queue is owned by exactly one worker
//! (`shard % workers`), and surplus workers double up on queues — so
//! every queue always has a consumer and no configuration can deadlock
//! or starve.
//!
//! Tasks with one affinity digest run one at a time, in dispatch order,
//! even where several workers share a queue: a worker takes the first
//! queued task whose digest no other worker is executing. So an
//! inline-source `analyze` always finishes before the queries for its
//! snapshot pipelined behind it start, at every geometry.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::poll::Parker;
use crate::route::Route;

/// One unit of work: a framed request line plus its route.
#[derive(Debug)]
pub struct Task {
    /// Owning connection (event-loop table key).
    pub conn: u64,
    /// Per-connection sequence number.
    pub seq: u64,
    /// The request line.
    pub line: String,
    /// Deadline anchor (when the line was framed).
    pub received: Instant,
    /// How the line routes: [`Route::affinity`] picks the shard (0 =
    /// round-robin), and [`Route::source_key`] travels to the worker.
    pub route: Route,
}

/// One finished task: the response, addressed back to its connection.
#[derive(Debug)]
pub struct Completion {
    /// Owning connection.
    pub conn: u64,
    /// Per-connection sequence number.
    pub seq: u64,
    /// The response line (no trailing newline).
    pub response: String,
}

/// Observable fleet counters, shared between the transport and the
/// `stats` op (rendered under the `fleet` key).
#[derive(Debug, Default)]
pub struct FleetStats {
    /// Shard queue count.
    pub shards: AtomicU64,
    /// Worker thread count.
    pub workers: AtomicU64,
    /// Connections currently open.
    pub connections: AtomicU64,
    /// Connections accepted over the fleet's lifetime.
    pub connections_total: AtomicU64,
    /// Tasks handed to shard queues.
    pub dispatched: AtomicU64,
    /// Dispatches whose affinity digest was recently served by the same
    /// shard (the cache-affinity win rate).
    pub shard_hits: AtomicU64,
    /// Requests refused with the structured `overloaded` error.
    pub overloaded_total: AtomicU64,
}

/// How many recent digests each shard remembers for the `shard_hits`
/// counter (direct-mapped, low bits index).
const RECENT_DIGESTS: usize = 256;

struct ShardQueue {
    tasks: Mutex<ShardState>,
}

struct ShardState {
    queue: VecDeque<Task>,
    /// Affinity digests a worker is executing right now; queued tasks
    /// with one of these wait their turn.
    running: Vec<u64>,
    /// Direct-mapped table of digests recently routed here.
    recent: Box<[u64; RECENT_DIGESTS]>,
}

impl ShardState {
    /// Takes the first task that may start now — stateless, or with a
    /// digest no worker is executing — and marks its digest running.
    fn take(&mut self) -> Option<Task> {
        let running = &self.running;
        let at = self
            .queue
            .iter()
            .position(|t| t.route.affinity == 0 || !running.contains(&t.route.affinity))?;
        let task = self.queue.remove(at)?;
        if task.route.affinity != 0 {
            self.running.push(task.route.affinity);
        }
        Some(task)
    }

    /// Marks a taken task's digest no longer running.
    fn finish(&mut self, affinity: u64) {
        if let Some(at) = self.running.iter().position(|&a| a == affinity) {
            self.running.swap_remove(at);
        }
    }
}

/// The pool: shard queues, per-worker parkers, and the completion
/// mailbox the event loop drains. Workers are *not* spawned here — the
/// transport runs [`ShardPool::worker_loop`] on scoped threads so the
/// handler can borrow the server without `'static` gymnastics.
pub struct ShardPool {
    shards: Vec<ShardQueue>,
    /// One parker per worker.
    parkers: Vec<Arc<Parker>>,
    /// `shard -> workers to wake on push` (precomputed; usually one).
    watchers: Vec<Vec<usize>>,
    /// `worker -> shards it serves` (every shard appears somewhere).
    assignments: Vec<Vec<usize>>,
    completions: Mutex<Vec<Completion>>,
    /// Wakes the event loop when a completion posts.
    notify: Arc<Parker>,
    stop: AtomicBool,
    /// Dispatched-but-not-completed, fleet-wide (the admission gauge).
    inflight: AtomicU64,
    /// Round-robin cursor for affinity-less tasks.
    spray: AtomicU64,
    stats: Arc<FleetStats>,
}

impl ShardPool {
    /// A pool with `shards` queues and `workers` consumers (both clamped
    /// to ≥ 1). `notify` is the event loop's parker.
    pub fn new(
        shards: usize,
        workers: usize,
        notify: Arc<Parker>,
        stats: Arc<FleetStats>,
    ) -> ShardPool {
        let shards = shards.max(1);
        let workers = workers.max(1);
        stats.shards.store(shards as u64, Ordering::Relaxed);
        stats.workers.store(workers as u64, Ordering::Relaxed);
        // Partition shards over workers: shard s belongs to worker
        // s % workers; a worker with no shard of its own doubles up on
        // shard (worker % shards).
        let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for s in 0..shards {
            assignments[s % workers].push(s);
        }
        for (w, owned) in assignments.iter_mut().enumerate() {
            if owned.is_empty() {
                owned.push(w % shards);
            }
        }
        let mut watchers: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (w, owned) in assignments.iter().enumerate() {
            for &s in owned {
                watchers[s].push(w);
            }
        }
        ShardPool {
            shards: (0..shards)
                .map(|_| ShardQueue {
                    tasks: Mutex::new(ShardState {
                        queue: VecDeque::new(),
                        running: Vec::new(),
                        recent: Box::new([0; RECENT_DIGESTS]),
                    }),
                })
                .collect(),
            parkers: (0..workers).map(|_| Arc::new(Parker::new())).collect(),
            watchers,
            assignments,
            completions: Mutex::new(Vec::new()),
            notify,
            stop: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            spray: AtomicU64::new(0),
            stats,
        }
    }

    /// Worker count (one `worker_loop` call each).
    pub fn workers(&self) -> usize {
        self.parkers.len()
    }

    /// Dispatched-but-not-completed tasks, fleet-wide.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Routes a task to its shard queue and wakes the consumer.
    pub fn dispatch(&self, task: Task) {
        let affinity = task.route.affinity;
        let shard = if affinity != 0 {
            (affinity % self.shards.len() as u64) as usize
        } else {
            (self.spray.fetch_add(1, Ordering::Relaxed) % self.shards.len() as u64) as usize
        };
        self.inflight.fetch_add(1, Ordering::SeqCst);
        self.stats.dispatched.fetch_add(1, Ordering::Relaxed);
        {
            let mut state = self.shards[shard].tasks.lock().expect("shard poisoned");
            if affinity != 0 {
                let slot = (affinity as usize) % RECENT_DIGESTS;
                if state.recent[slot] == affinity {
                    self.stats.shard_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    state.recent[slot] = affinity;
                }
            }
            state.queue.push_back(task);
        }
        for &w in &self.watchers[shard] {
            self.parkers[w].wake();
        }
    }

    /// Drains every completion posted since the last call.
    pub fn drain_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().expect("completions poisoned"))
    }

    /// Latches stop and wakes every worker. Workers exit once their
    /// queues are empty, so already-dispatched tasks still complete
    /// (the drain guarantee).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for p in &self.parkers {
            p.wake();
        }
    }

    /// The consumer loop for worker `w`: run on a scoped thread. `run`
    /// executes one task and returns the response line.
    pub fn worker_loop(&self, w: usize, run: &(dyn Fn(&Task) -> String + Sync)) {
        let parker = &self.parkers[w];
        let owned = &self.assignments[w];
        loop {
            let mut executed = false;
            for &s in owned {
                loop {
                    let task = self.shards[s].tasks.lock().expect("shard poisoned").take();
                    let Some(task) = task else { break };
                    executed = true;
                    let response = run(&task);
                    if task.route.affinity != 0 {
                        self.shards[s]
                            .tasks
                            .lock()
                            .expect("shard poisoned")
                            .finish(task.route.affinity);
                    }
                    self.inflight.fetch_sub(1, Ordering::SeqCst);
                    self.completions
                        .lock()
                        .expect("completions poisoned")
                        .push(Completion {
                            conn: task.conn,
                            seq: task.seq,
                            response,
                        });
                    self.notify.wake();
                }
            }
            if executed {
                continue;
            }
            if self.stop.load(Ordering::SeqCst) {
                // Nothing could run on the last pass and stop is latched.
                // A task dispatched after the stop check would have
                // latched our parker, so re-check once; a task waiting on
                // a digest another worker is executing is that worker's
                // to take, so only exit once our queues are empty.
                let drained = owned.iter().all(|&s| {
                    self.shards[s]
                        .tasks
                        .lock()
                        .expect("shard poisoned")
                        .queue
                        .is_empty()
                });
                if !parker.wait(Some(std::time::Duration::from_millis(1))) && drained {
                    break;
                }
                continue;
            }
            parker.wait(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::time::Duration;

    fn task(conn: u64, seq: u64, line: &str, affinity: u64) -> Task {
        Task {
            conn,
            seq,
            line: line.to_owned(),
            received: Instant::now(),
            route: Route {
                affinity,
                ..Route::default()
            },
        }
    }

    fn run_pool(
        shards: usize,
        workers: usize,
        tasks: Vec<Task>,
    ) -> (Vec<Completion>, Arc<FleetStats>) {
        let notify = Arc::new(Parker::new());
        let stats = Arc::new(FleetStats::default());
        let pool = ShardPool::new(shards, workers, Arc::clone(&notify), Arc::clone(&stats));
        let expected = tasks.len();
        let mut out = Vec::new();
        std::thread::scope(|scope| {
            for w in 0..pool.workers() {
                let pool = &pool;
                scope.spawn(move || {
                    pool.worker_loop(w, &|task| format!("echo:{}", task.line));
                });
            }
            for t in tasks {
                pool.dispatch(t);
            }
            let deadline = Instant::now() + Duration::from_secs(30);
            while out.len() < expected {
                notify.wait(Some(Duration::from_millis(50)));
                out.extend(pool.drain_completions());
                assert!(Instant::now() < deadline, "pool lost a task");
            }
            pool.stop();
        });
        assert_eq!(pool.inflight(), 0, "inflight gauge must return to zero");
        (out, stats)
    }

    #[test]
    fn every_task_completes_exactly_once_at_any_geometry() {
        for &(shards, workers) in &[(1, 1), (2, 1), (1, 4), (8, 2), (3, 8)] {
            let tasks: Vec<Task> = (0..64)
                .map(|i| task(i % 4, i / 4, &format!("req-{i}"), i * 977 + 1))
                .collect();
            let (completions, _) = run_pool(shards, workers, tasks);
            assert_eq!(completions.len(), 64, "geometry ({shards},{workers})");
            let mut seen = BTreeMap::new();
            for c in &completions {
                *seen.entry((c.conn, c.seq)).or_insert(0u32) += 1;
                assert!(c.response.starts_with("echo:req-"));
            }
            assert!(
                seen.values().all(|&n| n == 1),
                "duplicate or lost completion at ({shards},{workers})"
            );
        }
    }

    #[test]
    fn same_affinity_repeats_count_as_shard_hits() {
        let tasks: Vec<Task> = (0..32).map(|i| task(0, i, "q", 0xfeed)).collect();
        let (completions, stats) = run_pool(8, 2, tasks);
        assert_eq!(completions.len(), 32);
        assert_eq!(
            stats.shard_hits.load(Ordering::Relaxed),
            31,
            "every repeat after the first must hit the shard's recent table"
        );
        assert_eq!(stats.dispatched.load(Ordering::Relaxed), 32);
        // Affinity-less tasks spray round-robin and never count as hits.
        let tasks: Vec<Task> = (0..32).map(|i| task(0, i, "q", 0)).collect();
        let (_, stats) = run_pool(8, 2, tasks);
        assert_eq!(stats.shard_hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn one_digest_runs_on_one_worker_at_a_time_in_dispatch_order() {
        // Four workers share one queue. Tasks of one digest must never
        // overlap and must start in dispatch order; the stateless tasks
        // between them are free to run beside them.
        use std::sync::atomic::AtomicBool;
        let busy = AtomicBool::new(false);
        let order = Mutex::new(Vec::new());
        let notify = Arc::new(Parker::new());
        let stats = Arc::new(FleetStats::default());
        let pool = ShardPool::new(1, 4, Arc::clone(&notify), stats);
        std::thread::scope(|scope| {
            for w in 0..pool.workers() {
                let (pool, busy, order) = (&pool, &busy, &order);
                scope.spawn(move || {
                    pool.worker_loop(w, &|task| {
                        if task.route.affinity != 0 {
                            assert!(
                                !busy.swap(true, Ordering::SeqCst),
                                "two tasks of one digest overlapped"
                            );
                            order.lock().unwrap().push(task.seq);
                            std::thread::sleep(Duration::from_millis(2));
                            busy.store(false, Ordering::SeqCst);
                        }
                        String::new()
                    });
                });
            }
            for i in 0..24 {
                pool.dispatch(task(0, i, "q", if i % 3 == 2 { 0 } else { 0xbeef }));
            }
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut got = 0;
            while got < 24 {
                notify.wait(Some(Duration::from_millis(20)));
                got += pool.drain_completions().len();
                assert!(Instant::now() < deadline, "pool lost a task");
            }
            pool.stop();
        });
        let order = order.into_inner().unwrap();
        let want: Vec<u64> = (0..24).filter(|i| i % 3 != 2).collect();
        assert_eq!(
            order, want,
            "one digest's tasks must start in dispatch order"
        );
    }

    #[test]
    fn stop_drains_queued_tasks_before_workers_exit() {
        let notify = Arc::new(Parker::new());
        let stats = Arc::new(FleetStats::default());
        let pool = ShardPool::new(4, 1, Arc::clone(&notify), stats);
        std::thread::scope(|scope| {
            // Queue everything *before* the worker exists, then stop
            // immediately: the worker must still answer all of it.
            for i in 0..16 {
                pool.dispatch(task(0, i, "late", i + 1));
            }
            pool.stop();
            let pool_ref = &pool;
            scope.spawn(move || {
                pool_ref.worker_loop(0, &|task| task.line.clone());
            });
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut got = 0;
            while got < 16 {
                notify.wait(Some(Duration::from_millis(20)));
                got += pool.drain_completions().len();
                assert!(Instant::now() < deadline, "stop dropped queued tasks");
            }
        });
    }
}
