//! End-to-end model-checking tests on small sequential designs.

use autocc_bmc::{Bmc, CheckConfig, CheckOutcome, ProveOutcome, StopCause};
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

/// `count != 3` and `count != 6` on a free-running 3-bit counter, plus
/// the hard tautology `(a + b) + c == a + (b + c)` over free 10-bit
/// inputs and `count != 0`, violated on the first cycle.
fn mixed_properties() -> (Module, Vec<(String, autocc_hdl::NodeId)>) {
    let mut b = ModuleBuilder::new("mixed");
    let x = b.input("a", 10);
    let y = b.input("b", 10);
    let z = b.input("c", 10);
    let xy = b.add(x, y);
    let left = b.add(xy, z);
    let yz = b.add(y, z);
    let right = b.add(x, yz);
    let assoc = b.eq(left, right);
    b.output("assoc", assoc);
    let c = b.reg("count", 3, Bv::zero(3));
    let one = b.lit(3, 1);
    let next = b.add(c, one);
    b.set_next(c, next);
    for (name, value) in [("ne3", 3), ("ne6", 6), ("nonzero", 0)] {
        let v = b.lit(3, value);
        let ne = b.ne(c, v);
        b.output(name, ne);
    }
    let m = b.build();
    let props = ["ne6", "assoc", "ne3", "nonzero"]
        .iter()
        .map(|n| (n.to_string(), m.output_node(n).unwrap()))
        .collect();
    (m, props)
}

fn per_property_checker<'m>(m: &'m Module, props: &[(String, autocc_hdl::NodeId)]) -> Bmc<'m> {
    let mut bmc = Bmc::new(m);
    for (name, p) in props {
        bmc.add_property(name.clone(), *p);
    }
    bmc
}

/// The per-property mode gives every property the answer a checker
/// holding it alone gives, and stops unrolling once every property has
/// retired.
#[test]
fn check_each_answers_every_property_as_its_own_check() {
    let (m, props) = mixed_properties();
    let outcomes = per_property_checker(&m, &props).check_each(&options(10));
    for ((name, p), outcome) in props.iter().zip(&outcomes) {
        let mut alone = Bmc::new(&m);
        alone.add_property(name.clone(), *p);
        match (outcome, alone.check(&options(10))) {
            (CheckOutcome::Cex(each), CheckOutcome::Cex(solo)) => {
                assert_eq!(each.property, *name);
                assert_eq!(each.depth, solo.depth, "{name}");
            }
            (CheckOutcome::BoundReached { depth: a }, CheckOutcome::BoundReached { depth: b }) => {
                assert_eq!(*a, b, "{name}")
            }
            other => panic!("{name}: per-property and solo answers differ: {other:?}"),
        }
    }
    assert!(matches!(&outcomes[0], CheckOutcome::Cex(c) if c.depth == 7));
    assert!(matches!(&outcomes[3], CheckOutcome::Cex(c) if c.depth == 1));

    // Without the tautology every property retires by depth 7.
    let violated: Vec<_> = props
        .iter()
        .filter(|(n, _)| n != "assoc")
        .cloned()
        .collect();
    let mut bmc = per_property_checker(&m, &violated);
    bmc.check_each(&options(16));
    assert_eq!(
        bmc.stats().frames,
        7,
        "encoding stops once every property retired"
    );
}

/// Budgets are charged per property: the tautology spends its conflict
/// budget alone, and the properties after it still get their answers
/// although the run as a whole spends more than one budget. A huge time
/// budget is no deadline, and cancellation stops every open property at
/// the depth it had proven.
#[test]
fn check_each_budgets_hold_per_property() {
    let (m, props) = mixed_properties();
    let budget = 1000;
    let tight = CheckConfig::default()
        .depth(10)
        .conflicts(Some(budget))
        .no_timeout();
    let mut bmc = per_property_checker(&m, &props);
    let outcomes = bmc.check_each(&tight);
    assert!(
        matches!(
            outcomes[1],
            CheckOutcome::Exhausted {
                depth: 0,
                cause: StopCause::ConflictBudget
            }
        ),
        "the tautology exhausts its own budget: {:?}",
        outcomes[1]
    );
    let depths: Vec<Option<usize>> = outcomes
        .iter()
        .map(|o| match o {
            CheckOutcome::Cex(cex) => Some(cex.depth),
            _ => None,
        })
        .collect();
    assert_eq!(depths, [Some(7), None, Some(4), Some(1)]);
    assert!(bmc.counters().conflicts > budget, "{:?}", bmc.counters());

    let huge = CheckConfig::default()
        .depth(10)
        .timeout(Duration::from_secs(u64::MAX));
    let outcomes = per_property_checker(&m, &props).check_each(&huge);
    assert!(matches!(
        outcomes[1],
        CheckOutcome::BoundReached { depth: 10 }
    ));

    let mut bmc = per_property_checker(&m, &props);
    let cancel = autocc_bmc::CancelToken::new();
    cancel.cancel();
    bmc.set_cancel_token(cancel);
    for outcome in bmc.check_each(&options(10)) {
        assert!(
            matches!(
                outcome,
                CheckOutcome::Exhausted {
                    depth: 0,
                    cause: StopCause::Cancelled
                }
            ),
            "{outcome:?}"
        );
    }
}
