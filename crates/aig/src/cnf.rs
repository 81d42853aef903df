//! Tseitin encoding of AIG frames into the SAT solver.
//!
//! The bounded model checker instantiates the transition-relation AIG once
//! per time step ("frame"). [`FrameMap`] lazily encodes only the cone of
//! influence of the literals actually requested — next-state functions,
//! checked outputs, and the property — which keeps unrolled formulas small.

use crate::graph::{Aig, AigLit, AigNode};
use autocc_sat::{Lit, Solver};

/// SAT-literal assignment for one time frame of an AIG.
pub struct FrameMap {
    /// SAT literal per AIG node, `None` until encoded.
    lits: Vec<Option<Lit>>,
    /// A SAT literal constrained true, used for constant AIG literals.
    const_true: Lit,
    /// The encoder's DFS stack, kept between calls.
    stack: Vec<usize>,
}

impl FrameMap {
    /// Creates a frame over `aig` whose input nodes take the given SAT
    /// literals, in AIG-input creation order.
    ///
    /// `const_true` must be a literal already constrained to true in the
    /// solver (see [`assert_true_lit`]).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the AIG's input count.
    pub fn new(aig: &Aig, inputs: &[Lit], const_true: Lit) -> FrameMap {
        assert_eq!(inputs.len(), aig.num_inputs(), "frame input arity mismatch");
        let mut lits = vec![None; aig.num_nodes()];
        lits[0] = Some(!const_true); // constant-false node
        let mut next_input = 0;
        for (i, node) in aig.nodes().iter().enumerate() {
            if matches!(node, AigNode::Input) {
                lits[i] = Some(inputs[next_input]);
                next_input += 1;
            }
        }
        FrameMap {
            lits,
            const_true,
            stack: Vec::new(),
        }
    }

    /// Returns the SAT literal for `lit`, Tseitin-encoding its cone of
    /// influence into `solver` on first use.
    pub fn sat_lit(&mut self, solver: &mut Solver, aig: &Aig, lit: AigLit) -> Lit {
        let base = self.encode_node(solver, aig, lit.node());
        if lit.inverted() {
            !base
        } else {
            base
        }
    }

    fn encode_node(&mut self, solver: &mut Solver, aig: &Aig, node: usize) -> Lit {
        if let Some(l) = self.lits[node] {
            return l;
        }
        // Iterative DFS to avoid recursion depth limits on deep logic cones.
        self.stack.push(node);
        while let Some(&n) = self.stack.last() {
            if self.lits[n].is_some() {
                self.stack.pop();
                continue;
            }
            let AigNode::And(a, b) = aig.nodes()[n] else {
                unreachable!("inputs and constants are pre-seeded");
            };
            let need_a = self.lits[a.node()].is_none();
            let need_b = self.lits[b.node()].is_none();
            if need_a {
                self.stack.push(a.node());
            }
            if need_b {
                self.stack.push(b.node());
            }
            if need_a || need_b {
                continue;
            }
            self.stack.pop();
            let la = self.lit_of(a);
            let lb = self.lit_of(b);
            let v = solver.new_var().positive();
            // v <-> la ∧ lb
            solver.add_clause(&[!v, la]);
            solver.add_clause(&[!v, lb]);
            solver.add_clause(&[v, !la, !lb]);
            self.lits[n] = Some(v);
        }
        self.lits[node].expect("just encoded")
    }

    fn lit_of(&self, lit: AigLit) -> Lit {
        let base = self.lits[lit.node()].expect("operand encoded");
        if lit.inverted() {
            !base
        } else {
            base
        }
    }

    /// The always-true literal of this frame's solver context.
    pub fn const_true(&self) -> Lit {
        self.const_true
    }
}

/// Allocates and constrains a SAT literal to true; share it across frames.
pub fn assert_true_lit(solver: &mut Solver) -> Lit {
    let t = solver.new_var().positive();
    solver.add_clause(&[t]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocc_sat::SolveResult;

    /// Encode a full adder and check all input combinations via SAT.
    #[test]
    fn tseitin_matches_eval() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let cin = aig.input();
        let axb = aig.xor(a, b);
        let sum = aig.xor(axb, cin);
        let c1 = aig.and(a, b);
        let c2 = aig.and(cin, axb);
        let cout = aig.or(c1, c2);

        for bits in 0..8u32 {
            let (va, vb, vc) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
            let mut solver = Solver::new();
            let t = assert_true_lit(&mut solver);
            let ins: Vec<Lit> = (0..3).map(|_| solver.new_var().positive()).collect();
            let mut frame = FrameMap::new(&aig, &ins, t);
            let s_lit = frame.sat_lit(&mut solver, &aig, sum);
            let c_lit = frame.sat_lit(&mut solver, &aig, cout);

            let mut assum = vec![
                if va { ins[0] } else { !ins[0] },
                if vb { ins[1] } else { !ins[1] },
                if vc { ins[2] } else { !ins[2] },
            ];
            let expect_sum = va ^ vb ^ vc;
            let expect_cout = (va && vb) || (vc && (va ^ vb));
            assum.push(if expect_sum { s_lit } else { !s_lit });
            assum.push(if expect_cout { c_lit } else { !c_lit });
            assert_eq!(solver.solve_with(&assum), SolveResult::Sat, "bits={bits}");
            // And the complement must be unsatisfiable.
            let bad = vec![
                if va { ins[0] } else { !ins[0] },
                if vb { ins[1] } else { !ins[1] },
                if vc { ins[2] } else { !ins[2] },
                if expect_sum { !s_lit } else { s_lit },
            ];
            assert_eq!(solver.solve_with(&bad), SolveResult::Unsat, "bits={bits}");
        }
    }

    #[test]
    fn constants_encode_correctly() {
        let aig = Aig::new();
        let mut solver = Solver::new();
        let t = assert_true_lit(&mut solver);
        let mut frame = FrameMap::new(&aig, &[], t);
        let f_lit = frame.sat_lit(&mut solver, &aig, AigLit::FALSE);
        let t_lit = frame.sat_lit(&mut solver, &aig, AigLit::TRUE);
        assert_eq!(solver.solve_with(&[t_lit]), SolveResult::Sat);
        assert_eq!(solver.solve_with(&[f_lit]), SolveResult::Unsat);
    }
}
