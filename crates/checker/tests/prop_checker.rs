//! Randomized tests: over random formulas, the solver's claims always
//! survive independent validation, and the resolution engine obeys its
//! algebraic laws. Driven by the in-house [`SplitMix64`] generator
//! (seeded loops, reproducible from the printed seed); the `heavy-tests`
//! feature raises the case count.

use rescheck_checker::{
    check_sat_claim, check_unsat_claim, normalize_literals, resolve_sorted, CheckConfig,
    Strategy as CheckStrategy,
};
use rescheck_cnf::{Assignment, Cnf, LBool, Lit, SplitMix64, Var};
use rescheck_solver::{SolveResult, Solver, SolverConfig};
use rescheck_trace::MemorySink;

const CASES: u64 = if cfg!(feature = "heavy-tests") {
    512
} else {
    64
};

/// A random non-empty clause (1 to 4 literals) over `max_vars` variables.
fn random_dimacs_clause(rng: &mut SplitMix64, max_vars: u32) -> Vec<i64> {
    let len = rng.range_usize(1..5);
    (0..len)
        .map(|_| {
            let v = rng.range_u32(1..max_vars + 1) as i64;
            if rng.gen_bool(0.5) {
                v
            } else {
                -v
            }
        })
        .collect()
}

fn random_cnf(rng: &mut SplitMix64, max_vars: u32, max_clauses: u64) -> Cnf {
    let mut cnf = Cnf::with_vars(max_vars as usize);
    for _ in 0..1 + rng.below(max_clauses - 1) {
        let clause = random_dimacs_clause(rng, max_vars);
        cnf.add_dimacs_clause(&clause);
    }
    cnf
}

/// The headline property: whatever the solver claims is independently
/// validated — models satisfy, UNSAT traces check under both
/// strategies, and the answer agrees with brute force.
#[test]
fn solver_claims_always_validate() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let cnf = random_cnf(&mut rng, 8, 40);
        let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
        let mut trace = MemorySink::new();
        match solver.solve_traced(&mut trace).unwrap() {
            SolveResult::Satisfiable(model) => {
                assert!(check_sat_claim(&cnf, &model).is_ok(), "seed {seed}");
                assert!(cnf.brute_force_status().is_sat(), "seed {seed}");
            }
            SolveResult::Unsatisfiable => {
                assert!(cnf.brute_force_status().is_unsat(), "seed {seed}");
                for strategy in CheckStrategy::ALL {
                    let outcome =
                        check_unsat_claim(&cnf, &trace, strategy, &CheckConfig::default());
                    assert!(
                        outcome.is_ok(),
                        "seed {seed} {strategy}: {:?}",
                        outcome.err()
                    );
                }
            }
            SolveResult::Unknown => panic!("no budget configured (seed {seed})"),
        }
    }
}

/// The depth-first core is itself unsatisfiable and re-checks.
#[test]
fn df_core_is_unsat() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let cnf = random_cnf(&mut rng, 7, 44);
        let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
        let mut trace = MemorySink::new();
        if solver.solve_traced(&mut trace).unwrap().is_unsat() {
            let outcome = check_unsat_claim(
                &cnf,
                &trace,
                CheckStrategy::DepthFirst,
                &CheckConfig::default(),
            )
            .unwrap();
            let core = outcome.core.unwrap();
            let sub = core.to_subformula(&cnf);
            assert!(sub.brute_force_status().is_unsat(), "seed {seed}");
        }
    }
}

/// Both strategies agree on validity and on the learned-clause count.
#[test]
fn strategies_agree() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let cnf = random_cnf(&mut rng, 7, 40);
        let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
        let mut trace = MemorySink::new();
        if solver.solve_traced(&mut trace).unwrap().is_unsat() {
            let df = check_unsat_claim(
                &cnf,
                &trace,
                CheckStrategy::DepthFirst,
                &CheckConfig::default(),
            )
            .unwrap();
            let bf = check_unsat_claim(
                &cnf,
                &trace,
                CheckStrategy::BreadthFirst,
                &CheckConfig::default(),
            )
            .unwrap();
            assert_eq!(
                df.stats.learned_in_trace, bf.stats.learned_in_trace,
                "seed {seed}"
            );
            assert!(
                df.stats.clauses_built <= bf.stats.clauses_built,
                "seed {seed}"
            );
        }
    }
}

/// Solver determinism: the same seed and input give the same trace.
#[test]
fn solver_is_deterministic() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let cnf = random_cnf(&mut rng, 8, 30);
        let run = |cnf: &Cnf| {
            let mut solver = Solver::from_cnf(cnf, SolverConfig::default());
            let mut trace = MemorySink::new();
            let result = solver.solve_traced(&mut trace).unwrap();
            (result, trace.into_events())
        };
        let (r1, t1) = run(&cnf);
        let (r2, t2) = run(&cnf);
        assert_eq!(r1, r2, "seed {seed}");
        assert_eq!(t1, t2, "seed {seed}");
    }
}

/// Resolution soundness: any assignment satisfying both inputs
/// satisfies the resolvent.
#[test]
fn resolvent_is_implied() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let a = random_dimacs_clause(&mut rng, 6);
        let b = random_dimacs_clause(&mut rng, 6);
        let bits = rng.below(64);
        let an = normalize_literals(a.iter().map(|&d| Lit::from_dimacs(d)));
        let bn = normalize_literals(b.iter().map(|&d| Lit::from_dimacs(d)));
        if let Ok(resolvent) = resolve_sorted(&an, &bn) {
            let mut assignment = Assignment::new(6);
            for i in 0..6 {
                assignment.set(Var::new(i), LBool::from(bits >> i & 1 == 1));
            }
            let sat = |lits: &[Lit]| lits.iter().any(|&l| assignment.satisfies(l));
            if sat(&an) && sat(&bn) {
                assert!(
                    sat(&resolvent),
                    "seed {seed}: resolvent {resolvent:?} not satisfied"
                );
            }
        }
    }
}

/// Resolution never invents literals: the resolvent is a subset of
/// the union of its inputs minus the clashing variable.
#[test]
fn resolvent_literals_come_from_inputs() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let a = random_dimacs_clause(&mut rng, 6);
        let b = random_dimacs_clause(&mut rng, 6);
        let an = normalize_literals(a.iter().map(|&d| Lit::from_dimacs(d)));
        let bn = normalize_literals(b.iter().map(|&d| Lit::from_dimacs(d)));
        if let Ok(resolvent) = resolve_sorted(&an, &bn) {
            for l in &resolvent {
                assert!(an.contains(l) || bn.contains(l), "seed {seed}");
            }
            // Sorted and duplicate-free.
            assert!(resolvent.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
        }
    }
}
