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
//! allowed to run. A worker loop is therefore just: take, execute, post
//! the completion, wake the event loop. Shard and worker counts are
//! independent. Each shard has one owner (`shard % workers`); a worker
//! drains the shards it owns first and, when none of them holds a task
//! that may start, takes the first such task of another shard. So a
//! task never waits behind a busy owner while another worker idles,
//! and a worker that owns no shard (more workers than shards) still
//! has work whenever any queue does.
//!
//! Tasks with one affinity digest run one at a time, in dispatch order,
//! whichever worker takes them: a digest always routes to one shard,
//! and a worker takes the first queued task whose digest no worker is
//! executing. So an inline-source `analyze` always finishes before the
//! queries for its snapshot pipelined behind it start, at every
//! geometry.
//!
//! Wake-ups: `dispatch` wakes the shard's owner and, when the owner is
//! busy and the task may start, one idle worker. A worker publishes
//! that it is idle before its last look at the queues, so a dispatch
//! that look misses sees the flag and wakes it: no wake-up is lost, and
//! nothing spins.

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
    /// Tasks run by a worker that does not own their shard.
    pub stolen: AtomicU64,
    /// Requests refused with the structured `overloaded` error.
    pub overloaded_total: AtomicU64,
}

/// How many recent digests each shard remembers for the `shard_hits`
/// counter (direct-mapped, low bits index).
const RECENT_DIGESTS: usize = 256;

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

/// One worker's wake-up state.
#[derive(Default)]
struct WorkerSlot {
    parker: Parker,
    /// Set by the worker before its last look at the queues; cleared by
    /// whoever claims it for a wake-up, or by the worker once it runs.
    idle: AtomicBool,
}

/// The pool: shard queues, per-worker wake-up slots, and the completion
/// mailbox the event loop drains. Workers are *not* spawned here — the
/// transport runs [`ShardPool::worker_loop`] on scoped threads so the
/// handler can borrow the server without `'static` gymnastics.
pub struct ShardPool {
    shards: Vec<Mutex<ShardState>>,
    workers: Vec<WorkerSlot>,
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
        ShardPool {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(ShardState {
                        queue: VecDeque::new(),
                        running: Vec::new(),
                        recent: Box::new([0; RECENT_DIGESTS]),
                    })
                })
                .collect(),
            workers: (0..workers).map(|_| WorkerSlot::default()).collect(),
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
        self.workers.len()
    }

    /// Dispatched-but-not-completed tasks, fleet-wide.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::SeqCst)
    }

    /// The worker that owns shard `s`.
    fn owner(&self, s: usize) -> usize {
        s % self.workers.len()
    }

    fn shard(&self, s: usize) -> std::sync::MutexGuard<'_, ShardState> {
        self.shards[s].lock().expect("shard poisoned")
    }

    /// Wakes worker `w` if it is idle. Returns whether it was.
    fn wake_if_idle(&self, w: usize) -> bool {
        let slot = &self.workers[w];
        let idle = slot.idle.swap(false, Ordering::SeqCst);
        if idle {
            slot.parker.wake();
        }
        idle
    }

    /// Routes a task to its shard queue and wakes the owner — and, when
    /// the owner is busy, one idle worker to take it instead.
    pub fn dispatch(&self, task: Task) {
        let affinity = task.route.affinity;
        let shard = if affinity != 0 {
            (affinity % self.shards.len() as u64) as usize
        } else {
            (self.spray.fetch_add(1, Ordering::Relaxed) % self.shards.len() as u64) as usize
        };
        self.inflight.fetch_add(1, Ordering::SeqCst);
        self.stats.dispatched.fetch_add(1, Ordering::Relaxed);
        let runnable = {
            let mut state = self.shard(shard);
            if affinity != 0 {
                let slot = (affinity as usize) % RECENT_DIGESTS;
                if state.recent[slot] == affinity {
                    self.stats.shard_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    state.recent[slot] = affinity;
                }
            }
            state.queue.push_back(task);
            affinity == 0 || !state.running.contains(&affinity)
        };
        // The owner always gets a wake, so it alone guarantees the task
        // runs (a busy owner's next park returns at once). When it is
        // busy and the task may start now, one idle worker is woken too,
        // to take it sooner. A task whose digest is running cannot start
        // before that run ends, and the worker finishing it looks for
        // work again at once.
        let owner = self.owner(shard);
        if !self.wake_if_idle(owner) {
            self.workers[owner].parker.wake();
            if runnable {
                for w in (0..self.workers.len()).filter(|&w| w != owner) {
                    if self.wake_if_idle(w) {
                        break;
                    }
                }
            }
        }
    }

    /// Drains every completion posted since the last call.
    pub fn drain_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().expect("completions poisoned"))
    }

    /// Latches stop and wakes every worker. Workers exit once nothing
    /// they could run is left and their own queues are empty, so
    /// already-dispatched tasks still complete (the drain guarantee).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for slot in &self.workers {
            slot.parker.wake();
        }
    }

    /// The next task worker `w` may start, and its shard: the first
    /// runnable task of the shards it owns, else the first runnable task
    /// of any other shard.
    fn next_task(&self, w: usize) -> Option<(usize, Task)> {
        let n = self.shards.len();
        let others = (0..n).map(|i| (w + i) % n).filter(|&s| self.owner(s) != w);
        self.owned(w)
            .chain(others)
            .find_map(|s| Some((s, self.shard(s).take()?)))
    }

    /// The shards worker `w` owns (none when workers outnumber shards).
    fn owned(&self, w: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.shards.len()).filter(move |&s| self.owner(s) == w)
    }

    /// Runs one taken task from shard `s` on worker `w` and posts its
    /// completion.
    fn execute(&self, w: usize, s: usize, task: Task, run: &(dyn Fn(&Task) -> String + Sync)) {
        let stolen = self.owner(s) != w;
        if stolen {
            self.stats.stolen.fetch_add(1, Ordering::Relaxed);
        }
        let response = run(&task);
        if task.route.affinity != 0 {
            self.shard(s).finish(task.route.affinity);
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

    /// The consumer loop for worker `w`: run on a scoped thread. `run`
    /// executes one task and returns the response line.
    pub fn worker_loop(&self, w: usize, run: &(dyn Fn(&Task) -> String + Sync)) {
        let slot = &self.workers[w];
        loop {
            if let Some((s, task)) = self.next_task(w) {
                self.execute(w, s, task, run);
                continue;
            }
            if self.stop.load(Ordering::SeqCst) {
                // Nothing could run on the last look and stop is
                // latched. A task dispatched after the stop check would
                // have latched our parker, so re-check once; a task
                // waiting on a digest another worker is executing is
                // that worker's to take next, so only exit once our own
                // queues are empty.
                let drained = self.owned(w).all(|s| self.shard(s).queue.is_empty());
                if !slot.parker.wait(Some(std::time::Duration::from_millis(1))) && drained {
                    break;
                }
                continue;
            }
            // Publish idleness, then look once more: a dispatch this look
            // misses finds the flag set and wakes us.
            slot.idle.store(true, Ordering::SeqCst);
            if let Some((s, task)) = self.next_task(w) {
                slot.idle.store(false, Ordering::SeqCst);
                self.execute(w, s, task, run);
                continue;
            }
            slot.parker.wait(None);
            slot.idle.store(false, Ordering::SeqCst);
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
    fn an_idle_worker_runs_tasks_queued_behind_a_busy_owner() {
        // Two shards, two workers. The first task blocks until the second
        // has completed; both route to shard 0, so whichever worker runs
        // the first, the second can only finish in time if the other
        // worker takes it from a queue it may not own.
        let released = AtomicBool::new(false);
        let started = AtomicBool::new(false);
        let saw_release = AtomicBool::new(false);
        let notify = Arc::new(Parker::new());
        let stats = Arc::new(FleetStats::default());
        let pool = ShardPool::new(2, 2, Arc::clone(&notify), Arc::clone(&stats));
        std::thread::scope(|scope| {
            for w in 0..pool.workers() {
                let (pool, released, started, saw_release) =
                    (&pool, &released, &started, &saw_release);
                scope.spawn(move || {
                    pool.worker_loop(w, &|task| {
                        if task.line == "block" {
                            started.store(true, Ordering::SeqCst);
                            let deadline = Instant::now() + Duration::from_secs(10);
                            while !released.load(Ordering::SeqCst) && Instant::now() < deadline {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            saw_release.store(released.load(Ordering::SeqCst), Ordering::SeqCst);
                        } else {
                            released.store(true, Ordering::SeqCst);
                        }
                        String::new()
                    });
                });
            }
            pool.dispatch(task(0, 0, "block", 2));
            while !started.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            pool.dispatch(task(1, 0, "free", 4));
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut got = 0;
            while got < 2 {
                notify.wait(Some(Duration::from_millis(20)));
                got += pool.drain_completions().len();
                assert!(Instant::now() < deadline, "pool lost a task");
            }
            pool.stop();
        });
        assert!(
            saw_release.into_inner(),
            "the task queued behind a busy owner waited for it instead of running on the idle worker"
        );
        assert_eq!(stats.stolen.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn one_digest_runs_on_one_worker_at_a_time_in_dispatch_order() {
        // Tasks of one digest must never overlap and must start in
        // dispatch order, whichever worker runs them; the other digests
        // and the stateless tasks between them are free to run beside
        // them, and keep the owner busy so that others take its tasks.
        for &(shards, workers) in &[(1, 4), (2, 2), (4, 2)] {
            let busy = AtomicBool::new(false);
            let order = Mutex::new(Vec::new());
            let notify = Arc::new(Parker::new());
            let stats = Arc::new(FleetStats::default());
            let pool = ShardPool::new(shards, workers, Arc::clone(&notify), Arc::clone(&stats));
            std::thread::scope(|scope| {
                for w in 0..pool.workers() {
                    let (pool, busy, order) = (&pool, &busy, &order);
                    scope.spawn(move || {
                        pool.worker_loop(w, &|task| {
                            if task.route.affinity == 0xbeef {
                                assert!(
                                    !busy.swap(true, Ordering::SeqCst),
                                    "two tasks of one digest overlapped"
                                );
                                order.lock().unwrap().push(task.seq);
                                std::thread::sleep(Duration::from_millis(1));
                                busy.store(false, Ordering::SeqCst);
                            } else {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            String::new()
                        });
                    });
                }
                for i in 0..32 {
                    let affinity = match i % 4 {
                        1 => 0x1000 + i,
                        3 => 0,
                        _ => 0xbeef,
                    };
                    pool.dispatch(task(0, i, "q", affinity));
                }
                let deadline = Instant::now() + Duration::from_secs(30);
                let mut got = 0;
                while got < 32 {
                    notify.wait(Some(Duration::from_millis(20)));
                    got += pool.drain_completions().len();
                    assert!(Instant::now() < deadline, "pool lost a task");
                }
                pool.stop();
            });
            let order = order.into_inner().unwrap();
            let want: Vec<u64> = (0..32).filter(|i| i % 2 == 0).collect();
            assert_eq!(
                order, want,
                "one digest's tasks must start in dispatch order at ({shards},{workers})"
            );
            assert!(
                stats.stolen.load(Ordering::Relaxed) > 0,
                "no task ran off its owner at ({shards},{workers})"
            );
        }
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

        // A busy owner and an idle thief: the owner's task holds it
        // until the tasks queued behind it are answered, and stop is
        // latched while they wait. The thief must run them, not exit.
        let done = AtomicU64::new(0);
        let started = AtomicBool::new(false);
        let notify = Arc::new(Parker::new());
        let stats = Arc::new(FleetStats::default());
        let pool = ShardPool::new(2, 2, Arc::clone(&notify), stats);
        let mut got = 0;
        std::thread::scope(|scope| {
            for w in 0..pool.workers() {
                let (pool, done, started) = (&pool, &done, &started);
                scope.spawn(move || {
                    pool.worker_loop(w, &|task| {
                        if task.line == "hold" {
                            started.store(true, Ordering::SeqCst);
                            let deadline = Instant::now() + Duration::from_secs(10);
                            while done.load(Ordering::SeqCst) < 8 && Instant::now() < deadline {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        } else {
                            done.fetch_add(1, Ordering::SeqCst);
                        }
                        format!("{}", done.load(Ordering::SeqCst))
                    });
                });
            }
            pool.dispatch(task(0, 0, "hold", 2));
            while !started.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            for i in 0..8 {
                pool.dispatch(task(1, i, "late", 4 + 2 * i));
            }
            pool.stop();
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut hold_saw = String::new();
            while got < 9 {
                notify.wait(Some(Duration::from_millis(20)));
                for c in pool.drain_completions() {
                    if c.conn == 0 {
                        hold_saw = c.response;
                    }
                    got += 1;
                }
                assert!(Instant::now() < deadline, "stop dropped queued tasks");
            }
            assert_eq!(
                hold_saw, "8",
                "the tasks behind a busy owner must run beside it during the drain"
            );
        });
        assert_eq!(got, 9);
    }
}
