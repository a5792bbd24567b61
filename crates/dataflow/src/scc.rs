//! Strongly-connected-components utility shared across the workspace.
//!
//! Both the lint comb-loop pass and the simulator's levelized scheduler
//! need Tarjan SCC over a dense-index adjacency list; this is the single
//! shared implementation (they previously each kept a copy).

/// Iterative Tarjan SCC over successor lists (`adj[v]` lists the nodes
/// `v` points to); returns components with sorted member indices.
///
/// Components come out in reverse topological order of the condensation
/// (callees before callers), which is what a dependency levelizer wants.
/// Successors are visited in list order; callers pass sorted,
/// deduplicated lists, so the component order depends only on the graph.
pub fn tarjan_scc(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSEEN: usize = usize::MAX;
    let n = adj.len();
    let mut order = vec![UNSEEN; n]; // discovery order
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next = 0usize;
    let mut sccs = Vec::new();
    // Explicit DFS frames: (node, position in its successor list).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if order[start] != UNSEEN {
            continue;
        }
        frames.push((start, 0));
        order[start] = next;
        low[start] = next;
        next += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(last) = frames.len().checked_sub(1) {
            let (v, pos) = frames[last];
            if pos < adj[v].len() {
                let w = adj[v][pos];
                frames[last].1 += 1;
                if order[w] == UNSEEN {
                    order[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(order[w]);
                }
            } else {
                frames.pop();
                if let Some(parent) = frames.last() {
                    let p = parent.0;
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == order[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adj(edges: &[(usize, usize)], n: usize) -> Vec<Vec<usize>> {
        let mut a = vec![Vec::new(); n];
        for &(u, v) in edges {
            a[u].push(v);
        }
        a
    }

    #[test]
    fn finds_cycle_and_singletons() {
        // 0 -> 1 -> 2 -> 0 (cycle), 3 -> 0 (feeder).
        let a = adj(&[(0, 1), (1, 2), (2, 0), (3, 0)], 4);
        let sccs = tarjan_scc(&a);
        assert!(sccs.contains(&vec![0, 1, 2]));
        assert!(sccs.contains(&vec![3]));
        // Cycle (a dependency of 3) is emitted before its consumer.
        let cyc = sccs.iter().position(|c| c.len() == 3);
        let feeder = sccs.iter().position(|c| c == &vec![3]);
        assert!(cyc < feeder);
    }

    #[test]
    fn every_node_appears_exactly_once() {
        let a = adj(&[(0, 1), (1, 0), (2, 2), (4, 3)], 5);
        let sccs = tarjan_scc(&a);
        let mut all: Vec<usize> = sccs.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }
}
