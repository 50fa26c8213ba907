//! A reconstructed span hierarchy.
//!
//! Spans are collected (and streamed) flat, in completion order, with
//! parent links by id. [`SpanTree`] indexes that flat list into a
//! walkable tree: the timeline renderer, the offline trace analyzer, and
//! the critical-path extraction all traverse the same structure.

use crate::span::SpanRecord;
use std::collections::BTreeMap;

/// An indexed view over a flat list of completed spans.
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    spans: Vec<SpanRecord>,
    by_id: BTreeMap<u64, usize>,
    children: BTreeMap<u64, Vec<usize>>,
    roots: Vec<usize>,
}

impl SpanTree {
    /// Builds the tree. Spans whose parent id is unknown (e.g. the parent
    /// never closed) are treated as roots. Within a level, the original
    /// (completion) order is preserved.
    pub fn build(spans: Vec<SpanRecord>) -> Self {
        let by_id: BTreeMap<u64, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut roots = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            match s.parent.filter(|p| by_id.contains_key(p)) {
                Some(p) => children.entry(p).or_default().push(i),
                None => roots.push(i),
            }
        }
        Self {
            spans,
            by_id,
            children,
            roots,
        }
    }

    /// All spans, in the original order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Number of spans in the tree.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the tree has no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Looks up a span by id.
    pub fn get(&self, id: u64) -> Option<&SpanRecord> {
        self.by_id.get(&id).map(|&i| &self.spans[i])
    }

    /// The top-level spans.
    pub fn roots(&self) -> impl Iterator<Item = &SpanRecord> {
        self.roots.iter().map(|&i| &self.spans[i])
    }

    /// The direct children of span `id`.
    pub fn children(&self, id: u64) -> impl Iterator<Item = &SpanRecord> {
        self.children
            .get(&id)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&i| &self.spans[i])
    }

    /// Depth-first pre-order walk; `visit` receives each span and its
    /// depth (roots are depth 0).
    pub fn walk(&self, mut visit: impl FnMut(&SpanRecord, usize)) {
        fn rec(
            tree: &SpanTree,
            idx: usize,
            depth: usize,
            visit: &mut impl FnMut(&SpanRecord, usize),
        ) {
            let span = &tree.spans[idx];
            visit(span, depth);
            if let Some(kids) = tree.children.get(&span.id) {
                for &k in kids {
                    rec(tree, k, depth + 1, visit);
                }
            }
        }
        for &r in &self.roots {
            rec(self, r, 0, &mut visit);
        }
    }

    /// The chain of most-expensive descendants starting at span `id`
    /// (inclusive), ranked by simulated seconds — the critical path
    /// through that subtree at span granularity. Wall seconds are another
    /// clock and never enter the ranking.
    pub fn critical_path(&self, id: u64) -> Vec<&SpanRecord> {
        let mut path = Vec::new();
        let mut cur = self.get(id);
        while let Some(span) = cur {
            path.push(span);
            cur = self
                .children(span.id)
                .max_by(|a, b| a.sim_secs.total_cmp(&b.sim_secs));
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, wall: f64, sim: f64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            attrs: Vec::new(),
            start_secs: 0.0,
            wall_secs: wall,
            sim_secs: sim,
        }
    }

    fn sample() -> SpanTree {
        SpanTree::build(vec![
            span(2, Some(1), "scan", 0.01, 0.4),
            span(3, Some(1), "select", 0.02, 1.5),
            span(4, Some(3), "greedy", 0.015, 1.2),
            span(6, Some(1), "train", 0.4, 0.3),
            span(1, None, "epoch", 0.5, 2.2),
            span(5, Some(9), "orphan", 0.1, 0.0),
        ])
    }

    #[test]
    fn roots_children_and_lookup() {
        let tree = sample();
        let roots: Vec<&str> = tree.roots().map(|s| s.name.as_str()).collect();
        assert_eq!(roots, vec!["epoch", "orphan"]);
        let kids: Vec<&str> = tree.children(1).map(|s| s.name.as_str()).collect();
        assert_eq!(kids, vec!["scan", "select", "train"]);
        assert_eq!(tree.get(4).unwrap().name, "greedy");
        assert!(tree.get(99).is_none());
    }

    #[test]
    fn walk_is_preorder_with_depths() {
        let tree = sample();
        let mut seen = Vec::new();
        tree.walk(|s, d| seen.push((s.name.clone(), d)));
        assert_eq!(
            seen,
            vec![
                ("epoch".to_string(), 0),
                ("scan".to_string(), 1),
                ("select".to_string(), 1),
                ("greedy".to_string(), 2),
                ("train".to_string(), 1),
                ("orphan".to_string(), 0),
            ]
        );
    }

    #[test]
    fn critical_path_follows_max_cost() {
        // Ranked by sim seconds alone: train's wall 0.4 s outlasts
        // select's 0.02 s, but select's 1.5 sim s beats train's 0.3.
        let tree = sample();
        let path: Vec<&str> = tree
            .critical_path(1)
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(path, vec!["epoch", "select", "greedy"]);
    }

    #[test]
    fn empty_tree_is_safe() {
        let tree = SpanTree::build(Vec::new());
        assert!(tree.is_empty());
        assert_eq!(tree.roots().count(), 0);
        assert!(tree.critical_path(1).is_empty());
    }
}
