//! The shared search core: one [`SearchCore`] per search run, safe to
//! drive from any number of explorer threads.
//!
//! The core owns everything the strategies share:
//!
//! * a **sharded, lock-striped signature table** for duplicate detection —
//!   states hash to one of [`DEDUP_SHARDS`] stripes, so concurrent
//!   explorers only contend when they reach states with colliding stripe
//!   indexes, never on one global map;
//! * the **Figure 5 counters** (`created` / `duplicates` / `discarded` /
//!   `explored` / `transitions`) as relaxed atomics, plus the shared
//!   `max_states` budget check folded into the `created` increment;
//! * the **best tracker**: a [`BestCell`] — a lock-free cost gate in front
//!   of a mutex slot holding the best state and the Figure 7 cost-over-time
//!   trace. Exact cost ties break on the state signature so the reported
//!   best state is identical no matter how many explorers raced for it;
//! * the **work-stealing scheduler**: each explorer owns a private
//!   [`Frontier`] and, whenever siblings might starve, donates its
//!   freshly admitted successor to a shared injector — fresh nodes are
//!   the only ones guaranteed to hold unexplored work, because the shared
//!   dedup table eats the subtrees of older nodes; idle explorers take
//!   from the injector and terminate when the global pending count
//!   reaches zero.
//!
//! With `parallelism = 1` the single explorer runs inline on the calling
//! thread over the exact node ordering of the classic sequential loops, so
//! sequential results (and counters) are reproducible run over run.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rdf_model::sync::{lock_unpoisoned, unpoisoned};
use rdf_model::FxHashMap;

use crate::cost::CostModel;
use crate::state::State;
use crate::transitions::{apply, enumerate, Transition, TransitionConfig, TransitionKind};

use super::frontier::{CursorMode, Frontier, FrontierPolicy, Node};
use super::{SearchConfig, SearchOutcome, SearchStats};

/// Number of dedup stripes (power of two; states hash uniformly, so with
/// 64 stripes even 16 explorers rarely collide on a lock).
const DEDUP_SHARDS: usize = 64;

/// What [`SearchCore::admit`] decided about a reached state.
pub(crate) enum Admission {
    /// First time this state is attained: expand it.
    New {
        /// Its estimated cost (computed once, outside the stripe lock).
        cost: f64,
        /// Its signature.
        sig: u128,
    },
    /// Already attained, but re-reached at a strictly lower stratification
    /// phase: must be expanded again for the stratified strategies to stay
    /// exhaustive (counted as both a duplicate and a re-expansion).
    Reexpand,
    /// Already attained.
    Duplicate,
    /// Rejected by a stop condition.
    Discarded,
}

/// A thread-safe "keep the minimum" cell: a lock-free cost gate in front
/// of a mutex slot. Exact cost ties break on the smaller state signature,
/// making the winner independent of arrival order. Each strict improvement
/// is recorded, with the seconds since the cell's start, as the Figure 7
/// cost-over-time trace.
pub(crate) struct BestCell {
    bits: AtomicU64,
    start: Instant,
    slot: Mutex<Best>,
}

/// What a [`BestCell`] holds.
pub(crate) struct Best {
    pub cost: f64,
    sig: u128,
    pub state: Arc<State>,
    pub trace: Vec<(f64, f64)>,
}

impl BestCell {
    /// A cell holding `state` at `cost`, its trace starting at `start`.
    pub fn new(cost: f64, sig: u128, state: Arc<State>, start: Instant) -> Self {
        BestCell {
            bits: AtomicU64::new(cost.to_bits()),
            start,
            slot: Mutex::new(Best {
                cost,
                sig,
                state,
                trace: vec![(0.0, cost)],
            }),
        }
    }

    /// Offers a candidate; keeps it iff it beats the current holder, and
    /// only then asks `state` for it.
    pub fn offer(&self, cost: f64, sig: u128, state: impl FnOnce() -> Arc<State>) {
        // Fast gate: strictly worse candidates never touch the lock.
        if cost > f64::from_bits(self.bits.load(Ordering::Relaxed)) {
            return;
        }
        let mut best = lock_unpoisoned(&self.slot);
        if cost < best.cost {
            best.trace.push((self.start.elapsed().as_secs_f64(), cost));
            self.bits.store(cost.to_bits(), Ordering::Relaxed);
        } else if !(cost == best.cost && sig < best.sig) {
            return;
        }
        best.cost = cost;
        best.sig = sig;
        best.state = state();
    }

    /// What the cell holds.
    pub fn into_best(self) -> Best {
        unpoisoned(self.slot.into_inner())
    }
}

/// The shared bookkeeping core of one search run. All methods take
/// `&self`; the struct is `Sync` and is borrowed by every explorer thread
/// of the run.
pub(crate) struct SearchCore<'m, 'a, 'c> {
    pub model: &'m CostModel<'a>,
    pub cfg: &'c SearchConfig,
    pub tcfg: TransitionConfig,
    workers: usize,
    dedup: Vec<Mutex<FxHashMap<u128, u8>>>,
    created: AtomicU64,
    duplicates: AtomicU64,
    discarded: AtomicU64,
    explored: AtomicU64,
    transitions: AtomicU64,
    reexpansions: AtomicU64,
    best: BestCell,
    initial_cost: f64,
    start: Instant,
    deadline: Option<Instant>,
    halted: AtomicBool,
    timed_out: AtomicBool,
    out_of_budget: AtomicBool,
    /// Nodes scheduled but not yet fully explored (in a frontier, in the
    /// injector, or being expanded). Zero means the search space is drained.
    pending: AtomicUsize,
    injector: Mutex<VecDeque<Node>>,
    injector_len: AtomicUsize,
}

impl<'m, 'a, 'c> SearchCore<'m, 'a, 'c> {
    /// Builds the core. `s0` fixes the initial cost baseline and pre-loads
    /// the best tracker, but is **not** admitted into the dedup table —
    /// seeds are admitted when the driver schedules them.
    pub fn new(s0: &State, model: &'m CostModel<'a>, cfg: &'c SearchConfig) -> Self {
        let start = Instant::now();
        let initial_cost = model.cost(s0);
        let dedup = (0..DEDUP_SHARDS)
            .map(|_| Mutex::new(FxHashMap::default()))
            .collect();
        SearchCore {
            model,
            cfg,
            tcfg: TransitionConfig {
                vb_overlap_limit: cfg.vb_overlap_limit,
            },
            workers: cfg.effective_parallelism().max(1),
            dedup,
            created: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            explored: AtomicU64::new(0),
            transitions: AtomicU64::new(0),
            reexpansions: AtomicU64::new(0),
            best: BestCell::new(initial_cost, s0.signature(), Arc::new(s0.clone()), start),
            initial_cost,
            start,
            deadline: cfg.time_budget.map(|d| start + d),
            halted: AtomicBool::new(false),
            timed_out: AtomicBool::new(false),
            out_of_budget: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            injector: Mutex::new(VecDeque::new()),
            injector_len: AtomicUsize::new(0),
        }
    }

    /// Number of explorer threads this core drives per exploration.
    pub fn workers(&self) -> usize {
        self.workers
    }

    // -- counters ------------------------------------------------------

    /// Counts `n` created states and folds in the shared state budget:
    /// crossing `max_states` halts every explorer.
    pub fn count_created(&self, n: u64) {
        let total = self.created.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(max) = self.cfg.max_states {
            if total as usize >= max {
                self.out_of_budget.store(true, Ordering::Relaxed);
                self.halted.store(true, Ordering::Relaxed);
            }
        }
    }

    pub fn count_duplicates(&self, n: u64) {
        self.duplicates.fetch_add(n, Ordering::Relaxed);
    }

    pub fn count_discarded(&self, n: u64) {
        self.discarded.fetch_add(n, Ordering::Relaxed);
    }

    pub fn count_explored(&self, n: u64) {
        self.explored.fetch_add(n, Ordering::Relaxed);
    }

    /// Whether the search must stop (time or state budget). Cheap: one
    /// atomic load plus a clock read only while a deadline is armed.
    pub fn check_halted(&self) -> bool {
        if self.halted.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.timed_out.store(true, Ordering::Relaxed);
                self.halted.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    // -- state admission -----------------------------------------------

    /// Whether a state is rejected by the configured stop conditions.
    pub fn rejected(&self, s: &State) -> bool {
        (self.cfg.stop_tt && s.views().any(|v| v.is_triple_table()))
            || (self.cfg.stop_var && s.views().any(|v| v.all_variables()))
    }

    /// Registers a reached state against the striped dedup table.
    pub fn admit(&self, s: &State, phase: u8) -> Admission {
        self.count_created(1);
        if self.rejected(s) {
            self.count_discarded(1);
            return Admission::Discarded;
        }
        let sig = s.signature();
        if let Some(earlier) = self.mark(sig, phase) {
            self.count_duplicates(1);
            if phase >= earlier {
                return Admission::Duplicate;
            }
            // Reached through an earlier phase: must re-expand for the
            // stratified strategies to stay exhaustive.
            self.reexpansions.fetch_add(1, Ordering::Relaxed);
            return Admission::Reexpand;
        }
        // Cost estimation is the expensive part — done outside the
        // stripe lock.
        let cost = self.model.cost(s);
        self.best.offer(cost, sig, || Arc::new(s.clone()));
        Admission::New { cost, sig }
    }

    /// Admits a seed state, *forcing* it onto the frontier even when the
    /// dedup table already knows it (GSTR re-seeds each phase with the
    /// previous phase's winner; a forced re-seed is counted as created +
    /// duplicate + re-expansion so the counter invariant
    /// `created + reexpansions == duplicates + discarded + explored +
    /// frontier_remaining` holds). Seeds bypass the stop conditions, like
    /// `S0` always did. Returns the seed's cost and signature.
    pub fn admit_seed(&self, s: &State, phase: u8) -> (f64, u128) {
        self.count_created(1);
        let sig = s.signature();
        let known = self.mark(sig, phase).is_some();
        let cost = self.model.cost(s);
        if known {
            self.count_duplicates(1);
            self.reexpansions.fetch_add(1, Ordering::Relaxed);
        } else {
            self.best.offer(cost, sig, || Arc::new(s.clone()));
        }
        (cost, sig)
    }

    /// Records `sig` as reached in `phase` in its dedup stripe, keeping the
    /// earliest phase; returns the phase it was recorded with before, if
    /// it was.
    fn mark(&self, sig: u128, phase: u8) -> Option<u8> {
        let mut shard = lock_unpoisoned(&self.dedup[(sig as usize) & (DEDUP_SHARDS - 1)]);
        match shard.entry(sig) {
            Entry::Occupied(mut e) => {
                let earlier = *e.get();
                e.insert(earlier.min(phase));
                Some(earlier)
            }
            Entry::Vacant(e) => {
                e.insert(phase);
                None
            }
        }
    }

    // -- transition application ----------------------------------------

    /// Applies the AVF fixpoint: all fusions, eagerly; intermediate states
    /// are counted created-and-discarded, matching the paper's accounting.
    pub fn avf_fixpoint(&self, mut s: State) -> State {
        let mut vfs = enumerate(&s, TransitionKind::Vf, &self.tcfg);
        loop {
            let Some(t) = vfs.into_iter().next() else {
                return s;
            };
            s = apply(&s, &t);
            self.transitions.fetch_add(1, Ordering::Relaxed);
            // Does another fusion remain? If so this state is intermediate.
            vfs = enumerate(&s, TransitionKind::Vf, &self.tcfg);
            if !vfs.is_empty() {
                self.count_created(1);
                self.count_discarded(1);
            }
        }
    }

    /// Produces the successor of `s` by `t`, AVF-collapsed if configured.
    pub fn step(&self, s: &State, t: &Transition) -> State {
        self.transitions.fetch_add(1, Ordering::Relaxed);
        let next = apply(s, t);
        if self.cfg.avf {
            self.avf_fixpoint(next)
        } else {
            next
        }
    }

    // -- the explorer loop ---------------------------------------------

    /// Explores the closure of `seeds` under `mode`'s transitions using
    /// `self.workers` explorer threads (inline on the calling thread when
    /// 1). `run_best` additionally tracks the best state admitted *during
    /// this call* (the GSTR phase winner), seeds included.
    pub fn explore(
        &self,
        seeds: Vec<State>,
        policy: FrontierPolicy,
        mode: CursorMode,
        run_best: Option<&BestCell>,
    ) {
        let nodes: Vec<Node> = seeds
            .into_iter()
            .map(|s| {
                let (cost, sig) = self.admit_seed(&s, mode.seed_phase_tag());
                let state = Arc::new(s);
                if let Some(rb) = run_best {
                    rb.offer(cost, sig, || Arc::clone(&state));
                }
                self.pending.fetch_add(1, Ordering::Release);
                Node::new(state, mode.seed_cursor())
            })
            .collect();
        if self.workers > 1 {
            {
                let mut inj = lock_unpoisoned(&self.injector);
                inj.extend(nodes);
                self.injector_len.store(inj.len(), Ordering::Relaxed);
            }
            std::thread::scope(|scope| {
                for _ in 0..self.workers {
                    scope.spawn(|| self.explorer(Frontier::new(policy), mode, run_best));
                }
            });
        } else {
            let mut local = Frontier::new(policy);
            for n in nodes {
                local.push(n);
            }
            self.explorer(local, mode, run_best);
        }
    }

    /// One explorer: drains its local frontier, steals when idle, stops
    /// when the run halts or the global pending count hits zero.
    fn explorer(&self, mut local: Frontier, mode: CursorMode, run_best: Option<&BestCell>) {
        let mut idle_spins = 0u32;
        loop {
            if self.check_halted() {
                break;
            }
            let node = local.pop().or_else(|| self.steal_global());
            let Some(node) = node else {
                if self.pending.load(Ordering::Acquire) == 0 {
                    break;
                }
                idle_spins += 1;
                if idle_spins > 64 {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                } else {
                    std::thread::yield_now();
                }
                continue;
            };
            idle_spins = 0;
            self.expand_once(node, &mut local, mode, run_best);
        }
        // A halted explorer abandons its local frontier without touching
        // `pending`: the leftover is reported as `frontier_remaining`.
    }

    /// Draws transitions from `node`'s cursor until one schedules a new
    /// (or re-expandable) successor, then re-queues both per the frontier
    /// policy; an exhausted cursor marks the state explored.
    fn expand_once(
        &self,
        mut node: Node,
        local: &mut Frontier,
        mode: CursorMode,
        run_best: Option<&BestCell>,
    ) {
        loop {
            if self.check_halted() {
                // Dropped mid-expansion: stays in `pending` as remainder.
                return;
            }
            let Some(t) = node.cursor.next(&node.state, &self.tcfg) else {
                self.count_explored(1);
                self.pending.fetch_sub(1, Ordering::Release);
                return;
            };
            let next = self.step(&node.state, &t);
            let schedule = match self.admit(&next, mode.phase_tag(&t)) {
                Admission::New { cost, sig } => Some((cost, sig, true)),
                Admission::Reexpand => Some((0.0, 0, false)),
                Admission::Duplicate | Admission::Discarded => None,
            };
            if let Some((cost, sig, fresh)) = schedule {
                let child = Node::new(Arc::new(next), mode.successor_cursor(&t));
                if let Some(rb) = run_best.filter(|_| fresh) {
                    rb.offer(cost, sig, || Arc::clone(&child.state));
                }
                self.pending.fetch_add(1, Ordering::Release);
                // Freshly admitted nodes are the only ones guaranteed to
                // hold unexplored work (the shared dedup table eats the
                // subtrees of older nodes), so when siblings are hungry
                // the *child* is what gets donated; the parent stays local
                // to keep producing the next sibling.
                if self.workers > 1 && self.injector_len.load(Ordering::Relaxed) < self.workers {
                    local.push(node);
                    self.inject(child);
                } else {
                    local.requeue(node, child);
                }
                return;
            }
        }
    }

    fn steal_global(&self) -> Option<Node> {
        if self.injector_len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut inj = lock_unpoisoned(&self.injector);
        let n = inj.pop_front();
        self.injector_len.store(inj.len(), Ordering::Relaxed);
        n
    }

    /// Places a node on the shared injector for an idle sibling.
    fn inject(&self, node: Node) {
        let mut inj = lock_unpoisoned(&self.injector);
        inj.push_back(node);
        self.injector_len.store(inj.len(), Ordering::Relaxed);
    }

    // -- packaging -----------------------------------------------------

    /// Collects the outcome. Call after every explorer has stopped.
    pub fn finish(self) -> SearchOutcome {
        let best = self.best.into_best();
        let remaining = self.pending.into_inner() as u64;
        SearchOutcome {
            best_state: Arc::unwrap_or_clone(best.state),
            best_cost: best.cost,
            initial_cost: self.initial_cost,
            stats: SearchStats {
                created: self.created.into_inner(),
                duplicates: self.duplicates.into_inner(),
                discarded: self.discarded.into_inner(),
                explored: self.explored.into_inner(),
                transitions: self.transitions.into_inner(),
                reexpansions: self.reexpansions.into_inner(),
                frontier_remaining: remaining,
                best_cost_trace: best.trace,
                out_of_budget: self.out_of_budget.into_inner(),
                timed_out: self.timed_out.into_inner(),
                elapsed: self.start.elapsed(),
            },
        }
    }
}
