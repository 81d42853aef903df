//! Differential test of the whole checking stack: on small designs, the
//! bounded model checker must agree *exactly* — outcome and minimal
//! counterexample depth — with an explicit-state breadth-first reachability
//! search that enumerates every input at every step.

use autocc_bmc::{Bmc, CheckConfig, CheckOutcome};
use autocc_hdl::{Bv, Module, ModuleBuilder, NodeId, Sim};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};
use std::time::Duration;

/// Explicit-state BFS: returns the minimal number of cycles to violate the
/// property (trace length), or `None` if unreachable within `max_depth`.
fn bfs_min_cex_depth(module: &Module, property: NodeId, max_depth: usize) -> Option<usize> {
    let input_bits: u32 = module.inputs().iter().map(|p| p.width).sum();
    assert!(input_bits <= 6, "explicit search needs few input bits");

    // State key: all registers and memory words.
    let state_key = |sim: &Sim<'_>| -> Vec<u64> {
        let mut key = Vec::new();
        for i in 0..module.regs().len() {
            key.push(sim.reg(autocc_hdl::RegId::from_index(i)).value());
        }
        for (mi, m) in module.mems().iter().enumerate() {
            for w in 0..m.depth {
                key.push(sim.mem_word(autocc_hdl::MemId::from_index(mi), w).value());
            }
        }
        key
    };
    let restore = |sim: &mut Sim<'_>, key: &[u64]| {
        let mut it = key.iter();
        for i in 0..module.regs().len() {
            let w = module.regs()[i].width;
            sim.set_reg(
                autocc_hdl::RegId::from_index(i),
                Bv::new(w, *it.next().unwrap()),
            );
        }
        for (mi, m) in module.mems().iter().enumerate() {
            for w in 0..m.depth {
                sim.set_mem_word(
                    autocc_hdl::MemId::from_index(mi),
                    w,
                    Bv::new(m.width, *it.next().unwrap()),
                );
            }
        }
    };
    let apply_inputs = |sim: &mut Sim<'_>, mut bits: u64| {
        for (pi, p) in module.inputs().iter().enumerate() {
            let v = bits & Bv::mask(p.width);
            bits >>= p.width;
            sim.set_input_index(pi, Bv::new(p.width, v));
        }
    };

    let mut sim = Sim::new(module);
    let initial = state_key(&sim);
    let mut frontier = VecDeque::new();
    let mut seen: HashSet<Vec<u64>> = HashSet::new();
    frontier.push_back((initial.clone(), 0usize));
    seen.insert(initial);

    while let Some((key, depth)) = frontier.pop_front() {
        if depth >= max_depth {
            continue;
        }
        for input_bits_v in 0..1u64 << input_bits {
            restore(&mut sim, &key);
            apply_inputs(&mut sim, input_bits_v);
            if !sim.node(property).as_bool() {
                return Some(depth + 1); // trace of depth+1 cycles
            }
            sim.step();
            let next = state_key(&sim);
            if seen.insert(next.clone()) {
                frontier.push_back((next, depth + 1));
            }
        }
    }
    None
}

/// A small family of random sequential designs: a 4-bit register updated
/// by a random function of itself and a 2-bit input, plus a 2-word memory.
/// Three properties read the same state: `prop` (the observed value is
/// not `target`), `prop_st` (the register is not `target ^ k1`) and
/// `prop_lo` (its low two bits are not `target`'s high two).
fn random_design(seed: (u64, u64, u64, bool)) -> (Module, Vec<(String, NodeId)>) {
    let (k1, k2, target, use_mem) = seed;
    let mut b = ModuleBuilder::new("random_design");
    let din = b.input("din", 2);
    let st = b.reg("st", 4, Bv::zero(4));

    let din4 = b.zext(din, 4);
    let c1 = b.lit(4, k1 & 0xf);
    let c2 = b.lit(4, k2 & 0xf);
    let mixed = b.xor(st, c1);
    let sum = b.add(mixed, din4);
    let sel = b.bit(st, 0);
    let rot = {
        let hi = b.slice(st, 3, 1);
        let lo = b.bit(st, 3);
        b.concat(hi, lo)
    };
    let alt = b.xor(rot, c2);
    let next = b.mux(sel, sum, alt);
    b.set_next(st, next);

    let observed = if use_mem {
        let mem = b.mem("scratch", 2, 4);
        let waddr = b.bit(din, 0);
        let we = b.bit(din, 1);
        b.mem_write(mem, we, waddr, st);
        let rd = b.mem_read(mem, waddr);
        b.xor(rd, st)
    } else {
        st
    };
    // Property: observed != target.
    let t = b.lit(4, target & 0xf);
    let ne = b.ne(observed, t);
    b.output("prop", ne);
    let t_st = b.lit(4, (target ^ k1) & 0xf);
    let ne_st = b.ne(st, t_st);
    b.output("prop_st", ne_st);
    let lo = b.slice(st, 1, 0);
    let t_lo = b.lit(2, (target >> 2) & 0x3);
    let ne_lo = b.ne(lo, t_lo);
    b.output("prop_lo", ne_lo);
    let m = b.build();
    let props = ["prop", "prop_st", "prop_lo"]
        .iter()
        .map(|name| {
            (
                name.to_string(),
                m.output_node(name).expect("just declared"),
            )
        })
        .collect();
    (m, props)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// BMC and explicit-state BFS agree on reachability and minimal depth.
    #[test]
    fn bmc_agrees_with_explicit_search(k1 in 0u64..16, k2 in 0u64..16,
                                       target in 0u64..16, use_mem in any::<bool>()) {
        let (module, props) = random_design((k1, k2, target, use_mem));
        let prop = props[0].1;
        let max_depth = 12;
        let expected = bfs_min_cex_depth(&module, prop, max_depth);

        let mut bmc = Bmc::new(&module);
        bmc.add_property("prop", prop);
        let outcome = bmc.check(&CheckConfig::default()
            .depth(max_depth)
            .timeout(Duration::from_secs(60)));
        match (outcome, expected) {
            (CheckOutcome::Cex(cex), Some(depth)) => {
                prop_assert_eq!(cex.depth, depth, "minimal CEX depth must match BFS");
            }
            (CheckOutcome::BoundReached { .. }, None) => {}
            (got, want) => prop_assert!(
                false,
                "disagreement: BMC {:?} vs BFS {:?}",
                got,
                want
            ),
        }
    }

    /// The per-property mode answers every property from one unrolling
    /// exactly as BFS does for that property alone, with certification
    /// off and on.
    #[test]
    fn per_property_mode_agrees_with_explicit_search(k1 in 0u64..16, k2 in 0u64..16,
                                                     target in 0u64..16, use_mem in any::<bool>()) {
        let (module, props) = random_design((k1, k2, target, use_mem));
        let max_depth = 12;
        for certify in [false, true] {
            let mut bmc = Bmc::new(&module);
            for (name, p) in &props {
                bmc.add_property(name.clone(), *p);
            }
            let outcomes = bmc.check_each(&CheckConfig::default()
                .depth(max_depth)
                .timeout(Duration::from_secs(60))
                .certify(certify));
            prop_assert_eq!(outcomes.len(), props.len());
            for ((name, p), outcome) in props.iter().zip(outcomes) {
                match (outcome, bfs_min_cex_depth(&module, *p, max_depth)) {
                    (CheckOutcome::Cex(cex), Some(depth)) => {
                        prop_assert_eq!(&cex.property, name);
                        prop_assert_eq!(cex.depth, depth, "{} certify={}", name, certify);
                    }
                    (CheckOutcome::BoundReached { depth }, None) => {
                        prop_assert_eq!(depth, max_depth);
                    }
                    (got, want) => prop_assert!(
                        false,
                        "{} certify={}: per-property BMC {:?} vs BFS {:?}",
                        name,
                        certify,
                        got,
                        want
                    ),
                }
            }
            prop_assert_eq!(bmc.certificate().is_certified(), certify);
        }
    }
}

/// The builder's `output_node` lookup used above returns the right node.
#[test]
fn output_node_lookup() {
    let (module, props) = random_design((3, 7, 9, true));
    for (name, prop) in props {
        assert_eq!(module.output_node(&name), Some(prop));
    }
}
