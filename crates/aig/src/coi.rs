//! Sequential cone-of-influence (COI) reduction.
//!
//! Given a set of root literals (properties and constraints), the COI is
//! the set of input-port bits and state bits the roots transitively read —
//! through combinational logic *and* through the sequential next-state
//! functions. Everything outside the cone can be dropped from a bounded
//! model checking encoding without changing any check outcome: out-of-cone
//! state can never influence a root's value at any cycle.
//!
//! This is the slicing step JasperGold performs per property before
//! dispatching its engines; here it lets the portfolio scheduler hand each
//! property a model containing only what that property needs.

use crate::blast::SeqAig;
use crate::graph::{AigLit, AigNode};

/// The sequential cone of influence of a set of root literals.
#[derive(Clone, Debug)]
pub struct SeqCoi {
    /// Per flattened state bit (in [`SeqAig::state_info`] order): whether
    /// the bit is inside the cone.
    pub state_keep: Vec<bool>,
    /// Per flattened input-port bit (ports in declaration order, LSB
    /// first): whether the bit is inside the cone.
    pub port_keep: Vec<bool>,
}

impl SeqCoi {
    /// Number of state bits inside the cone.
    pub fn num_kept_state(&self) -> usize {
        self.state_keep.iter().filter(|&&k| k).count()
    }

    /// Number of input-port bits inside the cone.
    pub fn num_kept_ports(&self) -> usize {
        self.port_keep.iter().filter(|&&k| k).count()
    }

    /// True when slicing removed nothing (the cone covers the whole model).
    pub fn keeps_all(&self) -> bool {
        self.state_keep.iter().all(|&k| k) && self.port_keep.iter().all(|&k| k)
    }

    /// Total bits (state + input-port) inside the cone.
    pub fn num_kept_bits(&self) -> usize {
        self.num_kept_state() + self.num_kept_ports()
    }

    /// Grows this cone to also cover everything `other` covers.
    ///
    /// Both cones must come from the same [`SeqAig`] (same bit layout);
    /// mismatched lengths panic.
    pub fn union_with(&mut self, other: &SeqCoi) {
        assert_eq!(self.state_keep.len(), other.state_keep.len());
        assert_eq!(self.port_keep.len(), other.port_keep.len());
        for (k, o) in self.state_keep.iter_mut().zip(&other.state_keep) {
            *k |= *o;
        }
        for (k, o) in self.port_keep.iter_mut().zip(&other.port_keep) {
            *k |= *o;
        }
    }

    /// Jaccard overlap of two cones over the combined state + port bit
    /// sets: `|A ∩ B| / |A ∪ B|`. Two empty cones overlap fully (1.0).
    pub fn jaccard(&self, other: &SeqCoi) -> f64 {
        assert_eq!(self.state_keep.len(), other.state_keep.len());
        assert_eq!(self.port_keep.len(), other.port_keep.len());
        let mut inter = 0usize;
        let mut union = 0usize;
        let bits = self
            .state_keep
            .iter()
            .zip(&other.state_keep)
            .chain(self.port_keep.iter().zip(&other.port_keep));
        for (&a, &b) in bits {
            if a || b {
                union += 1;
                if a && b {
                    inter += 1;
                }
            }
        }
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }
}

/// A group of properties whose sequential cones overlap enough to be
/// sliced to one sub-model and checked together.
#[derive(Clone, Debug)]
pub struct ConeCluster {
    /// Indices into the cone slice handed to [`cluster_cones`] (i.e. the
    /// caller's property ordinals), in ascending order.
    pub members: Vec<usize>,
    /// Union cone of every member — the slice the cluster is checked
    /// under.
    pub cone: SeqCoi,
}

impl ConeCluster {
    /// State + port bits of the cluster's union cone.
    pub fn cone_bits(&self) -> usize {
        self.cone.num_kept_bits()
    }
}

/// Groups per-property cones into clusters by Jaccard overlap.
///
/// Greedy first-fit in input order: each cone joins the first existing
/// cluster whose *union* cone overlaps it by at least `overlap`
/// (Jaccard), else it opens a new cluster. The pass is deterministic —
/// cluster membership depends only on the input order and the threshold —
/// so downstream content keys and schedules are stable across runs.
///
/// `overlap` is clamped to `[0, 1]`. At `0.0` every cone joins the first
/// cluster (one cluster total); at `1.0` only identical cones share a
/// cluster.
pub fn cluster_cones(cones: &[SeqCoi], overlap: f64) -> Vec<ConeCluster> {
    let overlap = overlap.clamp(0.0, 1.0);
    let mut clusters: Vec<ConeCluster> = Vec::new();
    for (i, cone) in cones.iter().enumerate() {
        let slot = clusters
            .iter()
            .position(|c| c.cone.jaccard(cone) >= overlap);
        match slot {
            Some(s) => {
                clusters[s].members.push(i);
                clusters[s].cone.union_with(cone);
            }
            None => clusters.push(ConeCluster {
                members: vec![i],
                cone: cone.clone(),
            }),
        }
    }
    clusters
}

/// Computes the sequential COI of `roots` over `seq`.
///
/// The computation is a fixpoint: the combinational support of the roots
/// seeds the cone; every state bit that enters the cone adds its
/// next-state function's support, until no new state bit appears.
pub fn sequential_coi(seq: &SeqAig, roots: &[AigLit]) -> SeqCoi {
    let mut walk = ConeWalk::new(seq);
    walk.extend(roots);
    walk.into_coi()
}

/// A sequential cone walk over one [`SeqAig`] that can grow root by
/// root: [`ConeWalk::extend`] adds the cone of more roots to what the
/// walk already covers. The cone of a union of roots is the union of
/// their cones, so walking shared roots once and extending a clone per
/// property gives every property exactly the cone
/// [`sequential_coi`] gives it.
#[derive(Clone, Debug)]
pub struct ConeWalk<'a> {
    seq: &'a SeqAig,
    /// Per AIG node: whether the walk reached it.
    visited: Vec<bool>,
    coi: SeqCoi,
}

impl<'a> ConeWalk<'a> {
    /// An empty walk over `seq`.
    ///
    /// # Panics
    ///
    /// Panics if the AIG inputs of `seq` are not nodes `1..`, ports
    /// first and then state bits, the order [`SeqAig::from_module`]
    /// creates them in: the walk maps an input node to its port or state
    /// ordinal by node index.
    pub fn new(seq: &'a SeqAig) -> ConeWalk<'a> {
        let num_ports = seq.num_port_bits();
        let num_state = seq.state_cur.len();
        assert!(
            seq.aig.num_inputs() == num_ports + num_state
                && seq
                    .input_lits
                    .iter()
                    .flatten()
                    .chain(&seq.state_cur)
                    .enumerate()
                    .all(|(k, l)| l.node() == k + 1),
            "SeqAig inputs must be nodes 1.., ports then state"
        );
        ConeWalk {
            seq,
            visited: vec![false; seq.aig.num_nodes()],
            coi: SeqCoi {
                state_keep: vec![false; num_state],
                port_keep: vec![false; num_ports],
            },
        }
    }

    /// Grows the walk by the sequential cone of `roots`.
    pub fn extend(&mut self, roots: &[AigLit]) {
        let nodes = self.seq.aig.nodes();
        let num_ports = self.coi.port_keep.len();
        // Roots still to traverse; grows as state bits enter the cone.
        let mut pending: Vec<AigLit> = roots.to_vec();
        let mut stack: Vec<usize> = Vec::new();
        while let Some(root) = pending.pop() {
            stack.push(root.node());
            while let Some(n) = stack.pop() {
                if self.visited[n] {
                    continue;
                }
                self.visited[n] = true;
                match nodes[n] {
                    AigNode::False => {}
                    AigNode::Input if n > num_ports => {
                        let j = n - 1 - num_ports;
                        self.coi.state_keep[j] = true;
                        // The bit's next-state function joins the cone.
                        pending.push(self.seq.state_next[j]);
                    }
                    AigNode::Input => self.coi.port_keep[n - 1] = true,
                    AigNode::And(a, b) => {
                        stack.push(a.node());
                        stack.push(b.node());
                    }
                }
            }
        }
    }

    /// The cone covered so far.
    pub fn coi(&self) -> &SeqCoi {
        &self.coi
    }

    /// Per AIG node, whether the walk reached it: the combinational
    /// cones of the roots and of every kept state bit's next-state
    /// function.
    pub fn visited(&self) -> &[bool] {
        &self.visited
    }

    /// The cone covered so far, by value.
    pub fn into_coi(self) -> SeqCoi {
        self.coi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocc_hdl::{Bv, ModuleBuilder};

    /// Two independent counters; a property over one must slice the other
    /// away along with its increment input.
    #[test]
    fn independent_state_is_sliced() {
        let mut b = ModuleBuilder::new("two_counters");
        let step_a = b.input("step_a", 1);
        let step_b = b.input("step_b", 1);
        let a = b.reg("a", 4, Bv::zero(4));
        let bb = b.reg("b", 4, Bv::zero(4));
        let one = b.lit(4, 1);
        let a1 = b.add(a, one);
        let an = b.mux(step_a, a1, a);
        b.set_next(a, an);
        let b1 = b.add(bb, one);
        let bn = b.mux(step_b, b1, bb);
        b.set_next(bb, bn);
        let limit = b.lit(4, 12);
        let ok = b.ult(a, limit);
        b.output("a_small", ok);
        let m = b.build();

        let seq = SeqAig::from_module(&m);
        let root = seq.node_lits[m.output_node("a_small").unwrap().index()][0];
        let coi = sequential_coi(&seq, &[root]);

        assert_eq!(coi.num_kept_state(), 4, "only counter `a` is in the cone");
        assert_eq!(coi.num_kept_ports(), 1, "only `step_a` is in the cone");
        assert!(!coi.keeps_all());
        for (j, info) in seq.state_info.iter().enumerate() {
            assert_eq!(
                coi.state_keep[j],
                info.name.starts_with("a["),
                "{}",
                info.name
            );
        }
    }

    /// A register feeding another register that feeds the property: the
    /// sequential fixpoint must pull in the whole chain.
    #[test]
    fn sequential_chain_stays_in_cone() {
        let mut b = ModuleBuilder::new("chain");
        let d = b.input("d", 1);
        let s1 = b.reg("s1", 1, Bv::zero(1));
        let s2 = b.reg("s2", 1, Bv::zero(1));
        let unused = b.reg("unused", 1, Bv::zero(1));
        b.set_next(s1, d);
        b.set_next(s2, s1);
        let nu = b.not(unused);
        b.set_next(unused, nu);
        b.output("q", s2);
        let m = b.build();

        let seq = SeqAig::from_module(&m);
        let root = seq.node_lits[m.output_node("q").unwrap().index()][0];
        let coi = sequential_coi(&seq, &[root]);

        assert_eq!(coi.num_kept_state(), 2, "s1 and s2 kept, `unused` dropped");
        assert_eq!(coi.num_kept_ports(), 1, "d kept via s1's next-state");
    }

    /// A walk over shared roots, cloned and extended per property, gives
    /// each property the cone one walk over all of its roots gives.
    #[test]
    fn extended_walk_equals_one_walk_over_the_union() {
        let mut b = ModuleBuilder::new("shared_roots");
        let d = b.input("d", 1);
        let e = b.input("e", 1);
        let s1 = b.reg("s1", 1, Bv::zero(1));
        let s2 = b.reg("s2", 1, Bv::zero(1));
        let s3 = b.reg("s3", 1, Bv::zero(1));
        b.set_next(s1, d);
        b.set_next(s2, s1);
        b.set_next(s3, e);
        let c = b.not(s2);
        b.output("c", c);
        b.output("p", s1);
        b.output("q", s3);
        let m = b.build();

        let seq = SeqAig::from_module(&m);
        let lit = |name: &str| seq.node_lits[m.output_node(name).unwrap().index()][0];
        let mut shared = ConeWalk::new(&seq);
        shared.extend(&[lit("c")]);
        for prop in ["p", "q"] {
            let mut walk = shared.clone();
            walk.extend(&[lit(prop)]);
            let keep = |coi: SeqCoi| (coi.state_keep, coi.port_keep);
            let extended = keep(walk.into_coi());
            for roots in [[lit(prop), lit("c")], [lit("c"), lit(prop)]] {
                assert_eq!(extended, keep(sequential_coi(&seq, &roots)), "{prop}");
            }
        }
        assert_eq!(shared.coi().num_kept_state(), 2, "s1 and s2 under c");
        assert_eq!(shared.coi().num_kept_ports(), 1, "d under c");
    }

    fn cone(state: &[bool], ports: &[bool]) -> SeqCoi {
        SeqCoi {
            state_keep: state.to_vec(),
            port_keep: ports.to_vec(),
        }
    }

    #[test]
    fn jaccard_and_union_compose() {
        let a = cone(&[true, true, false, false], &[true]);
        let b = cone(&[false, true, true, false], &[true]);
        // |A ∩ B| = {s1, p0} = 2, |A ∪ B| = {s0, s1, s2, p0} = 4.
        assert!((a.jaccard(&b) - 0.5).abs() < 1e-12);
        assert!((a.jaccard(&a) - 1.0).abs() < 1e-12);
        let empty = cone(&[false; 4], &[false]);
        assert!((empty.jaccard(&empty) - 1.0).abs() < 1e-12);
        assert!((empty.jaccard(&a) - 0.0).abs() < 1e-12);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.num_kept_state(), 3);
        assert_eq!(u.num_kept_ports(), 1);
        assert_eq!(u.num_kept_bits(), 4);
    }

    #[test]
    fn clustering_groups_overlapping_cones() {
        // Two near-identical cones, one disjoint cone.
        let c0 = cone(&[true, true, true, false, false, false], &[]);
        let c1 = cone(&[true, true, true, true, false, false], &[]);
        let c2 = cone(&[false, false, false, false, true, true], &[]);
        let clusters = cluster_cones(&[c0, c1, c2], 0.7);
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].members, vec![0, 1]);
        assert_eq!(clusters[0].cone.num_kept_state(), 4, "union of c0 and c1");
        assert_eq!(clusters[1].members, vec![2]);
        assert_eq!(clusters[1].cone_bits(), 2);
    }

    #[test]
    fn clustering_threshold_extremes() {
        let c0 = cone(&[true, false], &[]);
        let c1 = cone(&[false, true], &[]);
        let c2 = cone(&[true, false], &[]);
        // Threshold 0: everything joins the first cluster.
        let all = cluster_cones(&[c0.clone(), c1.clone(), c2.clone()], 0.0);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].members, vec![0, 1, 2]);
        // Threshold 1: only identical cones merge. Cluster 0's union is
        // still {s0} (c1 never joined it), so c2 matches it exactly.
        let strict = cluster_cones(&[c0, c1, c2], 1.0);
        assert_eq!(strict.len(), 2);
        assert_eq!(strict[0].members, vec![0, 2]);
        assert_eq!(strict[1].members, vec![1]);
    }
}
