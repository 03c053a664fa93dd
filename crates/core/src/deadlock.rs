//! Deadlock detection for wait-for dependencies (§4.4).
//!
//! Commit dependencies cannot deadlock (an older transaction never waits on a
//! younger one), but wait-for dependencies can. Every cycle consists of
//! transactions blocked waiting for their `WaitForCounter` to drain, so the
//! waiting transaction builds a wait-for graph over the blocked transactions
//! itself, every few milliseconds of its wait (one pass at a time, see
//! `MvInner::detect_deadlocks`), finds strongly connected components with
//! Tarjan's algorithm, re-verifies that candidate cycles are still blocked
//! (the graph is built while processing continues, so it can be imprecise),
//! and aborts the youngest member of each genuine cycle.
//!
//! Graph construction follows the paper:
//!
//! 1. **Nodes** — transactions that have finished normal processing and are
//!    blocked on wait-for dependencies (here: `NoMoreWaitFors` set and
//!    `WaitForCounter > 0`).
//! 2. **Explicit edges** — for each transaction `T1` and each `T2` in `T1`'s
//!    WaitingTxnList, an edge `T2 → T1` (`T2` waits for `T1`).
//! 3. **Implicit edges** — for each transaction `T1` and each version `V`
//!    that `T1` has read-locked: if `V` is write-locked by `T2`, an edge
//!    `T2 → T1` (the updater waits for the readers).

use std::collections::HashMap;

use mmdb_common::ids::TxnId;
use mmdb_storage::store::MvStore;
use mmdb_storage::txn_table::TxnHandle;
use std::sync::Arc;

/// A snapshot of the wait-for graph.
#[derive(Debug, Default)]
pub struct WaitForGraph {
    /// Adjacency: `edges[a]` contains `b` when a → b (a waits for b).
    edges: HashMap<TxnId, Vec<TxnId>>,
    nodes: Vec<TxnId>,
}

impl WaitForGraph {
    /// Build the graph from the current state of the transaction table.
    pub fn build(store: &MvStore) -> (WaitForGraph, HashMap<TxnId, Arc<TxnHandle>>) {
        let snapshot = store.txns().snapshot();
        let mut handles: HashMap<TxnId, Arc<TxnHandle>> = HashMap::new();
        let mut graph = WaitForGraph::default();

        // Step 1: nodes — blocked transactions.
        for handle in &snapshot {
            if handle.no_more_wait_fors() && handle.wait_for_count() > 0 {
                graph.nodes.push(handle.id());
            }
            handles.insert(handle.id(), Arc::clone(handle));
        }
        let in_graph: std::collections::HashSet<TxnId> = graph.nodes.iter().copied().collect();

        // Step 2: explicit edges from WaitingTxnLists.
        for &t1 in &graph.nodes {
            let Some(h1) = handles.get(&t1) else { continue };
            for t2 in h1.peek_waiting_txns() {
                if in_graph.contains(&t2) {
                    graph.edges.entry(t2).or_default().push(t1);
                }
            }
        }

        // Step 3: implicit edges from read-locked versions.
        for &t1 in &graph.nodes {
            let Some(h1) = handles.get(&t1) else { continue };
            for version in h1.read_locked_versions() {
                if let Some(t2) = version.get().end_word().writer() {
                    if t2 != t1 && in_graph.contains(&t2) {
                        graph.edges.entry(t2).or_default().push(t1);
                    }
                }
            }
        }

        (graph, handles)
    }

    /// Add an edge (used by unit tests).
    pub fn add_edge(&mut self, from: TxnId, to: TxnId) {
        if !self.nodes.contains(&from) {
            self.nodes.push(from);
        }
        if !self.nodes.contains(&to) {
            self.nodes.push(to);
        }
        self.edges.entry(from).or_default().push(to);
    }

    /// Find cycles: every strongly connected component with more than one
    /// node, or with a self-loop, is a deadlock candidate. Implemented with
    /// an iterative version of Tarjan's algorithm (the paper's choice, \[25\]).
    pub fn cycles(&self) -> Vec<Vec<TxnId>> {
        #[derive(Default, Clone)]
        struct NodeState {
            index: Option<usize>,
            lowlink: usize,
            on_stack: bool,
        }

        let mut state: HashMap<TxnId, NodeState> = self
            .nodes
            .iter()
            .map(|&n| (n, NodeState::default()))
            .collect();
        let mut index = 0usize;
        let mut stack: Vec<TxnId> = Vec::new();
        let mut sccs: Vec<Vec<TxnId>> = Vec::new();
        let empty: Vec<TxnId> = Vec::new();

        // Iterative Tarjan: (node, neighbour cursor).
        for &root in &self.nodes {
            if state[&root].index.is_some() {
                continue;
            }
            let mut call_stack: Vec<(TxnId, usize)> = vec![(root, 0)];
            while let Some(&mut (v, ref mut cursor)) = call_stack.last_mut() {
                if *cursor == 0 {
                    let s = state.get_mut(&v).expect("node registered");
                    s.index = Some(index);
                    s.lowlink = index;
                    s.on_stack = true;
                    index += 1;
                    stack.push(v);
                }
                let neighbours = self.edges.get(&v).unwrap_or(&empty);
                if *cursor < neighbours.len() {
                    let w = neighbours[*cursor];
                    *cursor += 1;
                    if !state.contains_key(&w) {
                        continue;
                    }
                    if state[&w].index.is_none() {
                        call_stack.push((w, 0));
                    } else if state[&w].on_stack {
                        let w_index = state[&w].index.expect("visited");
                        let sv = state.get_mut(&v).expect("node registered");
                        sv.lowlink = sv.lowlink.min(w_index);
                    }
                } else {
                    // All neighbours processed: close v.
                    call_stack.pop();
                    if let Some(&(parent, _)) = call_stack.last() {
                        let v_low = state[&v].lowlink;
                        let sp = state.get_mut(&parent).expect("node registered");
                        sp.lowlink = sp.lowlink.min(v_low);
                    }
                    if state[&v].lowlink == state[&v].index.expect("visited") {
                        // Root of an SCC: pop it off the stack.
                        let mut component = Vec::new();
                        while let Some(w) = stack.pop() {
                            state.get_mut(&w).expect("node registered").on_stack = false;
                            component.push(w);
                            if w == v {
                                break;
                            }
                        }
                        let is_cycle = component.len() > 1
                            || self
                                .edges
                                .get(&component[0])
                                .map(|es| es.contains(&component[0]))
                                .unwrap_or(false);
                        if is_cycle {
                            sccs.push(component);
                        }
                    }
                }
            }
        }
        sccs
    }

    /// Number of blocked transactions considered.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// Run one detection pass over `store`: find genuine deadlock cycles and
/// abort the youngest member (highest transaction ID) of each. Returns the
/// number of victims chosen.
pub fn detect_and_resolve(store: &MvStore) -> usize {
    let (graph, handles) = WaitForGraph::build(store);
    if graph.node_count() < 2 {
        return 0;
    }
    let mut victims = 0;
    for cycle in graph.cycles() {
        // Verify the members are still blocked (the graph may be imprecise).
        let still_blocked = cycle.iter().all(|id| {
            handles
                .get(id)
                .map(|h| h.wait_for_count() > 0 && !h.abort_requested())
                .unwrap_or(false)
        });
        if !still_blocked {
            continue;
        }
        if let Some(victim) = cycle.iter().max_by_key(|id| id.0) {
            if let Some(h) = handles.get(victim) {
                h.request_abort();
                victims += 1;
            }
        }
    }
    victims
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_cycle_in_a_chain() {
        let mut g = WaitForGraph::default();
        g.add_edge(TxnId(1), TxnId(2));
        g.add_edge(TxnId(2), TxnId(3));
        g.add_edge(TxnId(3), TxnId(4));
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn two_cycle_detected() {
        let mut g = WaitForGraph::default();
        g.add_edge(TxnId(1), TxnId(2));
        g.add_edge(TxnId(2), TxnId(1));
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        let mut members = cycles[0].clone();
        members.sort_by_key(|t| t.0);
        assert_eq!(members, vec![TxnId(1), TxnId(2)]);
    }

    #[test]
    fn long_cycle_detected() {
        let mut g = WaitForGraph::default();
        for i in 1..=5u64 {
            g.add_edge(TxnId(i), TxnId(i % 5 + 1));
        }
        // Plus an acyclic appendix.
        g.add_edge(TxnId(10), TxnId(1));
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 5);
    }

    #[test]
    fn self_loop_counts_as_cycle() {
        let mut g = WaitForGraph::default();
        g.add_edge(TxnId(7), TxnId(7));
        assert_eq!(g.cycles().len(), 1);
    }

    #[test]
    fn multiple_independent_cycles() {
        let mut g = WaitForGraph::default();
        g.add_edge(TxnId(1), TxnId(2));
        g.add_edge(TxnId(2), TxnId(1));
        g.add_edge(TxnId(3), TxnId(4));
        g.add_edge(TxnId(4), TxnId(5));
        g.add_edge(TxnId(5), TxnId(3));
        g.add_edge(TxnId(6), TxnId(1));
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 2);
    }

    #[test]
    fn diamond_without_back_edge_is_acyclic() {
        let mut g = WaitForGraph::default();
        g.add_edge(TxnId(1), TxnId(2));
        g.add_edge(TxnId(1), TxnId(3));
        g.add_edge(TxnId(2), TxnId(4));
        g.add_edge(TxnId(3), TxnId(4));
        assert!(g.cycles().is_empty());
    }
}
