//! Automatic test pattern generation (ATPG) as SAT — the first EDA
//! application listed in the paper's introduction.
//!
//! For a stuck-at fault, the good-vs-faulty miter is SAT exactly when a
//! test pattern exists; an **UNSAT answer proves the fault untestable**
//! (the logic is redundant), a signoff-grade claim that deserves a
//! checked proof. The unsat core then points at the redundancy itself.

use crate::{Family, Instance};
use rescheck_circuit::{arith, fault, miter, Circuit, NodeId};
use rescheck_cnf::SatStatus;

/// A carry-select adder with `redundancy` spare mux stages whose select
/// lines do not affect the function (both mux branches carry the same
/// signal) — a typical source of untestable faults after conservative
/// synthesis. Returns the circuit and the redundant select-derived nodes.
fn adder_with_redundant_bypass(width: usize, redundancy: usize) -> (Circuit, Vec<NodeId>) {
    let mut c = Circuit::new();
    let a = c.input_word(width);
    let b = c.input_word(width);
    let spare = c.input_word(redundancy); // exercised but functionally dead
    let mut sum = arith::carry_select_add(&mut c, &a, &b, 2);
    let mut dead_nodes = Vec::with_capacity(redundancy);
    for (i, &s) in spare.iter().enumerate() {
        // sum[i] routed through a bypass that selects between two copies
        // of itself: (s ∧ v) ∨ (¬s ∧ v). Built by hand so folding keeps
        // the select network alive.
        let v = sum[i % sum.len()];
        let t1 = c.and(s, v);
        let ns = c.not(s);
        let t2 = c.and(ns, v);
        let bypassed = c.or(t1, t2);
        dead_nodes.push(ns);
        let idx = i % sum.len();
        sum[idx] = bypassed;
    }
    c.set_outputs(sum);
    (c, dead_nodes)
}

/// A testable stuck-at fault on an adder's carry chain: SAT, and the
/// model *is* the test pattern.
pub fn testable_fault(width: usize) -> Instance {
    let mut good = Circuit::new();
    let a = good.input_word(width);
    let b = good.input_word(width);
    let sum = arith::ripple_carry_add(&mut good, &a, &b);
    good.set_outputs(sum);

    // Fault site: the final sum bit (always observable and testable).
    let site = *good.outputs().last().expect("adder has outputs");
    let faulty = fault::inject_stuck_at(&good, site, false);
    let cnf = miter::equivalence_cnf(&good, &faulty).expect("same interface");
    Instance::new(
        format!("atpg_testable_{width}"),
        Family::Equivalence,
        cnf,
        Some(SatStatus::Satisfiable),
    )
}

/// An untestable stuck-at-1 fault on a redundant bypass select: UNSAT —
/// the proof certifies the redundancy.
pub fn redundant_fault(width: usize, redundancy: usize) -> Instance {
    assert!(redundancy >= 1);
    let (good, dead) = adder_with_redundant_bypass(width, redundancy);
    // ¬s stuck at 1 turns the bypass into (s∧v) ∨ v = v: the good
    // function. No input vector can distinguish the circuits.
    let faulty = fault::inject_stuck_at(&good, dead[0], true);
    let cnf = miter::equivalence_cnf(&good, &faulty).expect("same interface");
    Instance::new(
        format!("atpg_redundant_{width}_{redundancy}"),
        Family::Equivalence,
        cnf,
        Some(SatStatus::Unsatisfiable),
    )
}

/// Full single-fault coverage sweep: for every internal node and both
/// stuck values, the good-vs-faulty miter CNF plus its expected status
/// where cheaply known (`None` where it must be discovered by solving).
pub fn fault_sweep(width: usize) -> Vec<Instance> {
    let mut good = Circuit::new();
    let a = good.input_word(width);
    let b = good.input_word(width);
    let sum = arith::ripple_carry_add(&mut good, &a, &b);
    good.set_outputs(sum);
    fault::fault_sites(&good)
        .into_iter()
        .flat_map(|site| [false, true].into_iter().map(move |value| (site, value)))
        .map(|(site, value)| {
            let faulty = fault::inject_stuck_at(&good, site, value);
            let cnf = miter::equivalence_cnf(&good, &faulty).expect("same interface");
            Instance::new(
                format!("atpg_sweep_{width}_n{}_{}", site.index(), u8::from(value)),
                Family::Equivalence,
                cnf,
                None,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescheck_checker::{check_unsat_claim, CheckConfig, Strategy};
    use rescheck_solver::{SolveResult, Solver, SolverConfig};
    use rescheck_trace::MemorySink;

    #[test]
    fn testable_fault_yields_a_pattern() {
        let inst = testable_fault(4);
        let mut solver = Solver::from_cnf(&inst.cnf, SolverConfig::default());
        let result = solver.solve();
        let model = result.model().expect("fault must be testable");
        assert!(inst.cnf.is_satisfied_by(model));
    }

    #[test]
    fn redundant_fault_is_untestable_with_checked_proof() {
        let inst = redundant_fault(4, 2);
        let mut solver = Solver::from_cnf(&inst.cnf, SolverConfig::default());
        let mut trace = MemorySink::new();
        let result = solver.solve_traced(&mut trace).unwrap();
        assert!(result.is_unsat(), "fault must be untestable");
        for strategy in Strategy::ALL {
            check_unsat_claim(&inst.cnf, &trace, strategy, &CheckConfig::default())
                .unwrap_or_else(|e| panic!("{strategy}: {e}"));
        }
    }

    #[test]
    fn fault_sweep_classifies_every_fault() {
        // On a plain ripple-carry adder every internal stuck-at fault is
        // testable (no redundancy) — verify a sweep at width 2.
        let mut testable = 0;
        for inst in fault_sweep(2) {
            let mut solver = Solver::from_cnf(&inst.cnf, SolverConfig::default());
            match solver.solve() {
                SolveResult::Satisfiable(model) => {
                    assert!(inst.cnf.is_satisfied_by(&model), "{}", inst.name);
                    testable += 1;
                }
                SolveResult::Unsatisfiable => {
                    panic!("{}: ripple adders have no redundancy", inst.name)
                }
                SolveResult::Unknown => unreachable!(),
            }
        }
        assert!(testable > 10, "a sweep covers many fault sites");
    }

    #[test]
    fn redundancy_core_points_at_the_bypass() {
        use rescheck_checker::check_depth_first;
        let inst = redundant_fault(3, 1);
        let mut solver = Solver::from_cnf(&inst.cnf, SolverConfig::default());
        let mut trace = MemorySink::new();
        assert!(solver.solve_traced(&mut trace).unwrap().is_unsat());
        let outcome = check_depth_first(&inst.cnf, &trace, &CheckConfig::default()).unwrap();
        let core = outcome.core.unwrap();
        // The redundancy argument is local: the core is a proper subset
        // of the miter encoding.
        assert!(core.num_clauses() < inst.num_clauses());
    }
}
