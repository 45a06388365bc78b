//! The flattened node arena every trained model is stored, shipped and
//! walked as.
//!
//! `fit` grows each tree depth-first into a private [`Node`] list, then
//! [`TreeArena::append`] lays it out breadth-first at the end of three
//! parallel columns; a forest or a boosted ensemble keeps all its trees
//! in one arena and remembers their roots. The two children of a split
//! are adjacent (`right == left + 1`), so one step of a walk is `left +
//! (x > threshold)` with no branch on the comparison, and every child
//! index is greater than its parent's, so a walk always terminates. The
//! same columns are what serde writes: the payload carries no per-node
//! tags.
//!
//! A leaf is marked by `left == 0` (node 0 is a root, so no split points
//! at it) and keeps its payload in the other two columns: classification
//! trees put the leaf's row in their probability slab into `feature`,
//! regression trees put the leaf value into `threshold`.

use serde::{Deserialize, Serialize};

/// `left` of a leaf.
const LEAF: u32 = 0;

/// One node as `fit` grows it, before flattening. `L` is what a leaf
/// carries.
pub(crate) enum Node<L> {
    /// Terminal node.
    Leaf(L),
    /// Internal node: rows with `features[feature] <= threshold` go left.
    Split { feature: u32, threshold: f64, left: u32, right: u32 },
}

/// The nodes of one or more trees, each tree in breadth-first order, one
/// column per field.
///
/// Deserialization is field-by-field only: the owning model checks the
/// columns with [`TreeArena::validate`] before anything walks them.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct TreeArena {
    feature: Vec<u32>,
    threshold: Vec<f64>,
    left: Vec<u32>,
}

impl TreeArena {
    /// Lays `nodes` (root at index 0) out breadth-first behind the trees
    /// already here and returns the new root. `leaf` maps a leaf's payload
    /// to what its `feature` and `threshold` cells hold.
    pub(crate) fn append<L>(
        &mut self,
        nodes: &[Node<L>],
        mut leaf: impl FnMut(&L) -> (u32, f64),
    ) -> u32 {
        let root = self.left.len() as u32;
        // `order[i]` is the builder index of the tree's `i`-th arena node.
        // A split queues both children at once, which is what makes them
        // adjacent.
        let mut order = vec![0u32];
        let mut at = 0;
        while at < order.len() {
            let (feature, threshold, left) = match &nodes[order[at] as usize] {
                Node::Leaf(payload) => {
                    let (row, value) = leaf(payload);
                    (row, value, LEAF)
                }
                Node::Split { feature, threshold, left, right } => {
                    let first_child = root + order.len() as u32;
                    order.extend([*left, *right]);
                    (*feature, *threshold, first_child)
                }
            };
            self.feature.push(feature);
            self.threshold.push(threshold);
            self.left.push(left);
            at += 1;
        }
        root
    }

    /// Index of the leaf `features` falls into in the tree at `root`.
    #[inline]
    pub(crate) fn leaf(&self, root: u32, features: &[f64]) -> usize {
        let n = self.left.len();
        let (feature, threshold) = (&self.feature[..n], &self.threshold[..n]);
        let mut id = root as usize;
        loop {
            let left = self.left[id];
            if left == LEAF {
                return id;
            }
            // Right unless `x <= threshold`, so NaN goes right, as it did
            // in the `if x <= threshold { left } else { right }` walk.
            let goes_left = features[feature[id] as usize] <= threshold[id];
            id = left as usize + (usize::from(goes_left) ^ 1);
        }
    }

    /// The slab row stored in leaf `id` (classification trees).
    #[inline]
    pub(crate) fn leaf_row(&self, id: usize) -> usize {
        self.feature[id] as usize
    }

    /// The value stored in leaf `id` (regression trees).
    #[inline]
    pub(crate) fn leaf_value(&self, id: usize) -> f64 {
        self.threshold[id]
    }

    /// Indices of the leaves, ascending.
    pub(crate) fn leaves(&self) -> impl Iterator<Item = usize> + '_ {
        self.left.iter().enumerate().filter(|(_, &left)| left == LEAF).map(|(id, _)| id)
    }

    /// Number of nodes.
    pub(crate) fn n_nodes(&self) -> usize {
        self.left.len()
    }

    /// Depth of the deepest tree (a lone leaf has depth 0).
    pub(crate) fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.left.len()];
        for (id, &left) in self.left.iter().enumerate() {
            if left != LEAF {
                depth[left as usize] = depth[id] + 1;
                depth[left as usize + 1] = depth[id] + 1;
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }

    /// Checks decoded columns before anything walks them: equal lengths,
    /// every root a node, both children of every split in range and after
    /// their parent (so every walk terminates), every split feature below
    /// `n_features`.
    pub(crate) fn validate(&self, roots: &[u32], n_features: usize) -> Result<(), String> {
        let n = self.left.len();
        if self.feature.len() != n || self.threshold.len() != n {
            return Err(format!(
                "tree columns disagree: {} features, {} thresholds, {n} children",
                self.feature.len(),
                self.threshold.len()
            ));
        }
        if let Some(root) = roots.iter().find(|&&root| root as usize >= n) {
            return Err(format!("root {root} is not one of {n} nodes"));
        }
        for (id, &left) in self.left.iter().enumerate() {
            if left == LEAF {
                continue;
            }
            if left as usize <= id || left as usize + 1 >= n {
                return Err(format!("node {id} of {n} has children at {left}"));
            }
            if self.feature[id] as usize >= n_features {
                return Err(format!("node {id} splits on feature {}", self.feature[id]));
            }
        }
        Ok(())
    }
}

/// `Deserialize` for a model that owns arenas: every listed field is read
/// by name, then the model's `validate` decides whether the payload may
/// serve. A payload that fails is a decode error like any other.
macro_rules! deserialize_validated {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl serde::Deserialize for $ty {
            fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
                let fields = v
                    .as_object()
                    .ok_or_else(|| serde::Error::ty(stringify!($ty), "object"))?;
                let decoded = $ty {
                    $($field: serde::Deserialize::from_value(serde::field(
                        fields,
                        stringify!($field),
                    )?)?,)+
                };
                decoded.validate().map_err(serde::Error::msg)?;
                Ok(decoded)
            }
        }
    };
}
pub(crate) use deserialize_validated;

/// The walk as it was before the arena: follow `Node` links from the
/// root. Kept as the reference the flattened walk is tested against.
#[cfg(test)]
pub(crate) fn reference_leaf<'n, L>(nodes: &'n [Node<L>], features: &[f64]) -> &'n L {
    fn walk<'n, L>(nodes: &'n [Node<L>], id: u32, features: &[f64]) -> &'n L {
        match &nodes[id as usize] {
            Node::Leaf(payload) => payload,
            Node::Split { feature, threshold, left, right } => {
                let next = if features[*feature as usize] <= *threshold { *left } else { *right };
                walk(nodes, next, features)
            }
        }
    }
    walk(nodes, 0, features)
}

/// Feature rows for walk-equivalence tests: in-range values plus NaN and
/// both infinities.
#[cfg(test)]
pub(crate) fn wild_rows(n_features: usize, n_rows: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n_rows)
        .map(|_| {
            (0..n_features)
                .map(|_| match next() % 16 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    _ => (next() % 4_000) as f64 / 1_000.0 - 2.0,
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root: x0 <= 1 ? (x1 <= 5 ? A : B) : C, grown depth-first.
    fn three_leaves() -> Vec<Node<f64>> {
        vec![
            Node::Split { feature: 0, threshold: 1.0, left: 1, right: 4 },
            Node::Split { feature: 1, threshold: 5.0, left: 2, right: 3 },
            Node::Leaf(10.0),
            Node::Leaf(20.0),
            Node::Leaf(30.0),
        ]
    }

    #[test]
    fn append_is_breadth_first_with_adjacent_children() {
        let mut arena = TreeArena::default();
        assert_eq!(arena.append(&three_leaves(), |&v| (0, v)), 0);
        assert_eq!(arena.left, vec![1, 3, LEAF, LEAF, LEAF]);
        assert_eq!(arena.threshold, vec![1.0, 5.0, 30.0, 10.0, 20.0]);
        // A second tree lands behind the first, children shifted with it.
        assert_eq!(arena.append(&three_leaves(), |&v| (0, v + 1.0)), 5);
        assert_eq!(arena.left[5..], [6, 8, LEAF, LEAF, LEAF]);
        assert_eq!(arena.n_nodes(), 10);
        assert_eq!(arena.depth(), 2);
        assert_eq!(arena.leaves().collect::<Vec<_>>(), vec![2, 3, 4, 7, 8, 9]);
        assert!(arena.validate(&[0, 5], 2).is_ok());
    }

    #[test]
    fn walk_matches_reference_including_nan() {
        let nodes = three_leaves();
        let mut arena = TreeArena::default();
        arena.append(&[Node::Leaf(-1.0)], |&v| (0, v));
        let root = arena.append(&nodes, |&v| (0, v));
        for row in wild_rows(2, 2_000, 7) {
            assert_eq!(
                arena.leaf_value(arena.leaf(root, &row)).to_bits(),
                reference_leaf(&nodes, &row).to_bits()
            );
        }
        // NaN fails `<=`, so it goes right at the root.
        assert_eq!(arena.leaf_value(arena.leaf(root, &[f64::NAN, 0.0])), 30.0);
        assert_eq!(arena.leaf_value(arena.leaf(0, &[f64::NAN, 0.0])), -1.0);
    }

    #[test]
    fn validate_rejects_walks_that_would_not_terminate() {
        let mut good = TreeArena::default();
        good.append(&three_leaves(), |&v| (0, v));
        let broken = |edit: fn(&mut TreeArena)| {
            let mut arena = good.clone();
            edit(&mut arena);
            arena.validate(&[0], 2)
        };
        assert!(broken(|a| a.left[1] = 1).is_err(), "self-loop");
        assert!(broken(|a| a.left[1] = 0).is_ok(), "a split turned leaf is still a tree");
        assert!(broken(|a| a.left[0] = 4).is_err(), "right child out of range");
        assert!(broken(|a| a.left[0] = 900).is_err(), "left child out of range");
        assert!(broken(|a| a.feature[0] = 2).is_err(), "feature out of range");
        assert!(broken(|a| a.threshold.truncate(4)).is_err(), "short column");
        assert!(good.validate(&[5], 2).is_err(), "root past the last node");
        assert!(TreeArena::default().validate(&[0], 2).is_err(), "root of an empty arena");
    }
}
