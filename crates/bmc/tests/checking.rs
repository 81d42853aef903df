//! End-to-end model-checking tests on small sequential designs.

use autocc_bmc::{Bmc, CheckConfig, CheckOutcome, ProveOutcome};
use autocc_hdl::{Bv, Module, ModuleBuilder};
use std::time::Duration;

fn options(depth: usize) -> CheckConfig {
    CheckConfig::default()
        .depth(depth)
        .timeout(Duration::from_secs(60))
}

/// A counter that saturates at a limit.
fn saturating_counter(limit: u64) -> Module {
    let mut b = ModuleBuilder::new("sat_counter");
    let en = b.input("en", 1);
    let c = b.reg("count", 4, Bv::zero(4));
    let lim = b.lit(4, limit);
    let below = b.ult(c, lim);
    let one = b.lit(4, 1);
    let inc = b.add(c, one);
    let grow = b.and(en, below);
    let next = b.mux(grow, inc, c);
    b.set_next(c, next);
    let le = b.ule(c, lim);
    b.output("count", c);
    b.output("le_limit", le);
    b.build()
}

#[test]
fn finds_minimal_depth_cex() {
    // Property: count != 3. Counter needs 4 cycles (0,1,2,3) to reach 3.
    let m = saturating_counter(10);
    let bmc = Bmc::new(&m);
    let count = m.output_node("count").unwrap();
    // Rebuild "count != 3" as a property node is not possible post-build,
    // so the DUT exposes `le_limit`; instead check via a fresh module.
    let mut b = ModuleBuilder::new("wrap");
    let en = b.input("en", 1);
    let mut wires = std::collections::HashMap::new();
    wires.insert("en".to_string(), en);
    let inst = b.instantiate(&m, "u", &wires);
    let ne3 = {
        let three = b.lit(4, 3);
        b.ne(inst.outputs["count"], three)
    };
    b.output("ne3", ne3);
    let wrapped = b.build();
    drop(bmc);
    let _ = count;

    let mut bmc = Bmc::new(&wrapped);
    bmc.add_property("count_ne_3", wrapped.output_node("ne3").unwrap());
    match bmc.check(&options(16)) {
        CheckOutcome::Cex(cex) => {
            assert_eq!(cex.property, "count_ne_3");
            assert_eq!(cex.depth, 4, "minimal counterexample is 4 cycles");
            // Every cycle before the last must have en=1 to count up.
            for t in 0..3 {
                assert_eq!(cex.trace.input(t, 0).value(), 1);
            }
        }
        other => panic!("expected CEX, got {other:?}"),
    }
}

#[test]
fn bounded_proof_when_property_holds() {
    // Saturating at 5 means count <= 5 always.
    let m = saturating_counter(5);
    let mut bmc = Bmc::new(&m);
    bmc.add_property("le_limit", m.output_node("le_limit").unwrap());
    match bmc.check(&options(20)) {
        CheckOutcome::BoundReached { depth } => assert_eq!(depth, 20),
        other => panic!("expected bounded proof, got {other:?}"),
    }
}

#[test]
fn constraints_remove_cexs() {
    // Without constraints the input can push count to 3; with the
    // constraint en == 0 it never moves.
    let mut b = ModuleBuilder::new("wrap");
    let m = saturating_counter(10);
    let en = b.input("en", 1);
    let mut wires = std::collections::HashMap::new();
    wires.insert("en".to_string(), en);
    let inst = b.instantiate(&m, "u", &wires);
    let three = b.lit(4, 3);
    let ne3 = b.ne(inst.outputs["count"], three);
    let en_low = b.not(en);
    b.output("ne3", ne3);
    b.output("en_low", en_low);
    let wrapped = b.build();

    let mut bmc = Bmc::new(&wrapped);
    bmc.add_constraint(wrapped.output_node("en_low").unwrap());
    bmc.add_property("count_ne_3", wrapped.output_node("ne3").unwrap());
    match bmc.check(&options(12)) {
        CheckOutcome::BoundReached { depth } => assert_eq!(depth, 12),
        other => panic!("expected bounded proof under constraint, got {other:?}"),
    }
}

#[test]
fn induction_proves_saturating_bound() {
    let m = saturating_counter(5);
    let mut bmc = Bmc::new(&m);
    bmc.add_property("le_limit", m.output_node("le_limit").unwrap());
    match bmc.prove(&options(16)) {
        ProveOutcome::Proved { induction_depth } => {
            assert!(induction_depth >= 1);
        }
        other => panic!("expected full proof, got {other:?}"),
    }
}

#[test]
fn induction_finds_base_case_cex() {
    let m = saturating_counter(10);
    let mut b = ModuleBuilder::new("wrap");
    let en = b.input("en", 1);
    let mut wires = std::collections::HashMap::new();
    wires.insert("en".to_string(), en);
    let inst = b.instantiate(&m, "u", &wires);
    let three = b.lit(4, 3);
    let ne3 = b.ne(inst.outputs["count"], three);
    b.output("ne3", ne3);
    let wrapped = b.build();

    let mut bmc = Bmc::new(&wrapped);
    bmc.add_property("count_ne_3", wrapped.output_node("ne3").unwrap());
    match bmc.prove(&options(16)) {
        ProveOutcome::Cex(cex) => assert_eq!(cex.depth, 4),
        other => panic!("expected CEX from base case, got {other:?}"),
    }
}

#[test]
fn multiple_properties_attribute_correct_one() {
    let m = saturating_counter(10);
    let mut b = ModuleBuilder::new("wrap");
    let en = b.input("en", 1);
    let mut wires = std::collections::HashMap::new();
    wires.insert("en".to_string(), en);
    let inst = b.instantiate(&m, "u", &wires);
    let two = b.lit(4, 2);
    let seven = b.lit(4, 7);
    let ne2 = b.ne(inst.outputs["count"], two);
    let ne7 = b.ne(inst.outputs["count"], seven);
    b.output("ne2", ne2);
    b.output("ne7", ne7);
    let wrapped = b.build();

    let mut bmc = Bmc::new(&wrapped);
    bmc.add_property("ne2", wrapped.output_node("ne2").unwrap());
    bmc.add_property("ne7", wrapped.output_node("ne7").unwrap());
    match bmc.check(&options(16)) {
        CheckOutcome::Cex(cex) => {
            // ne2 fails first (count reaches 2 before 7).
            assert_eq!(cex.property, "ne2");
            assert_eq!(cex.depth, 3);
        }
        other => panic!("expected CEX, got {other:?}"),
    }
}

#[test]
fn memory_state_is_tracked() {
    // Write a value, then property "mem word 0 read is zero" must fail.
    let mut b = ModuleBuilder::new("ram");
    let we = b.input("we", 1);
    let data = b.input("data", 4);
    let mem = b.mem("m", 2, 4);
    let zero_addr = b.lit(1, 0);
    b.mem_write(mem, we, zero_addr, data);
    let rd = b.mem_read(mem, zero_addr);
    let is_zero = b.eq_lit(rd, 0);
    b.output("is_zero", is_zero);
    let m = b.build();

    let mut bmc = Bmc::new(&m);
    bmc.add_property("word0_zero", m.output_node("is_zero").unwrap());
    match bmc.check(&options(8)) {
        CheckOutcome::Cex(cex) => {
            assert_eq!(cex.depth, 2, "write at cycle 0, observe at cycle 1");
            assert_eq!(cex.trace.input(0, 0).value(), 1, "write enable set");
            assert_ne!(cex.trace.input(0, 1).value(), 0, "nonzero data written");
        }
        other => panic!("expected CEX, got {other:?}"),
    }
}

#[test]
fn budget_exhaustion_reports_depth() {
    let m = saturating_counter(5);
    let mut bmc = Bmc::new(&m);
    bmc.add_property("le_limit", m.output_node("le_limit").unwrap());
    let opts = CheckConfig::default()
        .depth(1000)
        .conflicts(Some(1))
        .no_timeout();
    match bmc.check(&opts) {
        CheckOutcome::Exhausted { .. } | CheckOutcome::BoundReached { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
}

/// A time budget past what an `Instant` can reach is no limit: the base
/// check and the induction step both run to their answers instead of
/// overflowing the deadline arithmetic.
#[test]
fn a_huge_time_budget_means_no_deadline() {
    let huge = CheckConfig::default()
        .depth(16)
        .timeout(Duration::from_secs(u64::MAX));
    let m = saturating_counter(5);
    let mut bmc = Bmc::new(&m);
    bmc.add_property("le_limit", m.output_node("le_limit").unwrap());
    match bmc.check(&huge) {
        CheckOutcome::BoundReached { depth } => assert_eq!(depth, 16),
        other => panic!("expected a bounded proof, got {other:?}"),
    }
    let mut bmc = Bmc::new(&m);
    bmc.add_property("le_limit", m.output_node("le_limit").unwrap());
    match bmc.prove(&huge) {
        ProveOutcome::Proved { .. } => {}
        other => panic!("expected a full proof, got {other:?}"),
    }
}
