//! Frontiers and transition cursors — the exploration-order layer of the
//! search core.
//!
//! A [`Frontier`] owns the pending [`Node`]s of one explorer (worker
//! thread) and fixes the exploration discipline:
//!
//! * [`FrontierPolicy::Fifo`] — Algorithm 2's candidate *queue*
//!   (EXNAIVE / EXSTR): breadth-flavored, one transition per turn;
//! * [`FrontierPolicy::Lifo`] — the DFS *stack*: each branch is fully
//!   explored before backtracking, keeping the frontier small;
//! * [`FrontierPolicy::BestOnly`] — GSTR's between-phase retention: the
//!   frontier collapses to the single best state after each transition
//!   phase (implemented by the phase driver re-seeding with the phase
//!   winner; within a phase the closure is explored Lifo).
//!
//! Every policy exposes `push` (schedule a node), `requeue` (re-insert
//! the node being expanded with its fresh successor, in the policy's
//! sequential order) and `pop` (take the next node to expand, from the
//! policy's hot end). Cross-explorer work sharing does not steal from
//! these local frontiers: the shared dedup table eats the subtrees of
//! older nodes, so the engine donates *freshly admitted* nodes — the only
//! ones guaranteed to hold unexplored work — to a shared injector instead
//! (see the engine's explorer loop).
//!
//! [`Cursor`] lazily enumerates a state's outgoing transitions one
//! stratification phase at a time, so queued states don't hold their full
//! transition lists in memory.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::state::State;
use crate::transitions::{enumerate, Transition, TransitionConfig, TransitionKind};

// ---------------------------------------------------------------------
// Lazy per-state transition cursors
// ---------------------------------------------------------------------

/// Lazily enumerates the transitions of a state, one stratification phase
/// at a time, so queued states don't hold their full transition lists.
pub(crate) struct Cursor {
    kinds: Vec<TransitionKind>,
    kind_idx: usize,
    list: std::vec::IntoIter<Transition>,
}

impl Cursor {
    /// All four kinds (naive exploration).
    pub fn all() -> Self {
        Self::for_kinds(TransitionKind::ALL.to_vec())
    }

    /// Kinds allowed from a state whose path ends in `phase`, in
    /// stratified order.
    pub fn stratified(phase: TransitionKind) -> Self {
        Self::for_kinds(
            TransitionKind::ALL
                .into_iter()
                .filter(|k| *k >= phase)
                .collect(),
        )
    }

    /// A single kind (GSTR phases).
    pub fn single(kind: TransitionKind) -> Self {
        Self::for_kinds(vec![kind])
    }

    fn for_kinds(kinds: Vec<TransitionKind>) -> Self {
        Cursor {
            kinds,
            kind_idx: 0,
            list: Vec::new().into_iter(),
        }
    }

    /// The next transition, if any, handed out by move.
    pub fn next(&mut self, state: &State, tcfg: &TransitionConfig) -> Option<Transition> {
        loop {
            if let Some(t) = self.list.next() {
                return Some(t);
            }
            let kind = *self.kinds.get(self.kind_idx)?;
            self.list = enumerate(state, kind, tcfg).into_iter();
            self.kind_idx += 1;
        }
    }
}

/// How successor cursors are built — the strategy's stratification rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CursorMode {
    /// Every state receives all four transition kinds (EXNAIVE).
    All,
    /// A state reached through a `kind` transition only receives kinds
    /// `>= kind` — the VB* SC* JC* VF* stratification (EXSTR / DFS).
    Stratified,
    /// Only one kind is applied (a GSTR phase closure).
    Single(TransitionKind),
}

impl CursorMode {
    /// The cursor for a state reached through `via`.
    pub fn successor_cursor(&self, via: &Transition) -> Cursor {
        match self {
            CursorMode::All => Cursor::all(),
            CursorMode::Stratified => Cursor::stratified(via.kind()),
            CursorMode::Single(kind) => Cursor::single(*kind),
        }
    }

    /// The cursor for a seed state (no incoming transition).
    pub fn seed_cursor(&self) -> Cursor {
        match self {
            CursorMode::All => Cursor::all(),
            CursorMode::Stratified => Cursor::stratified(TransitionKind::Vb),
            CursorMode::Single(kind) => Cursor::single(*kind),
        }
    }

    /// The dedup phase tag of a state reached through `via` (states
    /// re-reached at a strictly lower tag are re-expanded so the
    /// stratified strategies stay exhaustive; EXNAIVE tags everything 0).
    pub fn phase_tag(&self, via: &Transition) -> u8 {
        match self {
            CursorMode::All => 0,
            CursorMode::Stratified => via.kind() as u8,
            CursorMode::Single(kind) => *kind as u8,
        }
    }

    /// The dedup phase tag of a seed state.
    pub fn seed_phase_tag(&self) -> u8 {
        match self {
            CursorMode::All => 0,
            CursorMode::Stratified => TransitionKind::Vb as u8,
            CursorMode::Single(kind) => *kind as u8,
        }
    }
}

// ---------------------------------------------------------------------
// Nodes and frontiers
// ---------------------------------------------------------------------

/// One pending unit of exploration: a state plus the cursor over its
/// untried transitions. The state is behind an [`Arc`] so that handing a
/// node to another explorer (work stealing) or re-queuing it costs a
/// pointer copy, never a deep clone of the view set.
pub(crate) struct Node {
    pub state: Arc<State>,
    pub cursor: Cursor,
}

impl Node {
    pub fn new(state: Arc<State>, cursor: Cursor) -> Self {
        Node { state, cursor }
    }
}

/// The exploration discipline of a [`Frontier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrontierPolicy {
    /// Candidate queue (EXNAIVE / EXSTR): pop the oldest pending node.
    Fifo,
    /// Stack (DFS): pop the newest pending node.
    Lifo,
    /// Best-only between phases (GSTR): within a phase the closure is
    /// explored like a stack; the phase driver collapses the frontier to
    /// the phase's best state before the next phase.
    BestOnly,
}

/// A frontier of pending nodes under one [`FrontierPolicy`].
pub(crate) struct Frontier {
    policy: FrontierPolicy,
    nodes: VecDeque<Node>,
}

impl Frontier {
    pub fn new(policy: FrontierPolicy) -> Self {
        Frontier {
            policy,
            nodes: VecDeque::new(),
        }
    }

    /// Schedules a node.
    pub fn push(&mut self, node: Node) {
        self.nodes.push_back(node);
    }

    /// Re-schedules the node being expanded together with its freshly
    /// created successor, in the order the policy's sequential semantics
    /// prescribe: a queue parks the parent *behind* the child (Algorithm 2
    /// re-appends the state after `applyTrans`), a stack keeps the parent
    /// below and expands the child next.
    pub fn requeue(&mut self, parent: Node, child: Node) {
        match self.policy {
            FrontierPolicy::Fifo => {
                self.nodes.push_back(child);
                self.nodes.push_back(parent);
            }
            FrontierPolicy::Lifo | FrontierPolicy::BestOnly => {
                self.nodes.push_back(parent);
                self.nodes.push_back(child);
            }
        }
    }

    /// The next node to expand (the policy's hot end).
    pub fn pop(&mut self) -> Option<Node> {
        match self.policy {
            FrontierPolicy::Fifo => self.nodes.pop_front(),
            FrontierPolicy::Lifo | FrontierPolicy::BestOnly => self.nodes.pop_back(),
        }
    }
}
