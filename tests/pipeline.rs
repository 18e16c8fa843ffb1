//! Cross-crate integration tests: every workload family through the full
//! solve → trace → check → core pipeline, via the umbrella crate's
//! public API only.

use rescheck::prelude::*;
use rescheck::workloads::{self, quick_suite};

#[test]
fn every_quick_suite_family_checks_end_to_end() {
    for instance in quick_suite() {
        let cnf = &instance.cnf;
        let mut solver = Solver::from_cnf(cnf, SolverConfig::default());
        let mut trace = MemorySink::new();
        let result = solver.solve_traced(&mut trace).expect("memory sink");
        assert_eq!(
            result.status(),
            instance.expected.expect("quick suite is labelled"),
            "{}",
            instance.name
        );
        for strategy in Strategy::ALL {
            let outcome = check_unsat_claim(cnf, &trace, strategy, &CheckConfig::default())
                .unwrap_or_else(|e| panic!("{} ({strategy}): {e}", instance.name));
            assert_eq!(
                outcome.stats.learned_in_trace,
                solver.stats().learned_clauses,
                "{}",
                instance.name
            );
        }
        // The depth-first core is itself unsatisfiable.
        let outcome =
            check_unsat_claim(cnf, &trace, Strategy::DepthFirst, &CheckConfig::default()).unwrap();
        let core = outcome.core.unwrap();
        let sub = core.to_subformula(cnf);
        let mut sub_solver = Solver::from_cnf(&sub, SolverConfig::default());
        assert!(sub_solver.solve().is_unsat(), "{} core", instance.name);
    }
}

#[test]
fn satisfiable_twins_verify_their_models() {
    let sat_instances = vec![
        workloads::pigeonhole::satisfiable_instance(4),
        workloads::equiv::buggy_adder_miter(6),
        workloads::routing::routable_channel(3, 8, 5),
        workloads::planning::exact_horizon(4),
        workloads::bmc::barrel_broken(4, 8),
        workloads::pipeline::buggy_pipe(5, 2),
    ];
    for instance in sat_instances {
        let mut solver = Solver::from_cnf(&instance.cnf, SolverConfig::default());
        let result = solver.solve();
        assert!(result.is_sat(), "{}", instance.name);
        check_sat_claim(&instance.cnf, result.model().unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", instance.name));
    }
}

#[test]
fn dimacs_roundtrip_preserves_solver_behaviour() {
    // Serialize each instance to DIMACS, reparse, and confirm the solver
    // and checkers behave identically (clause IDs must line up).
    for instance in quick_suite().into_iter().take(4) {
        let text = dimacs::to_string(&instance.cnf);
        let reparsed = dimacs::parse_str(&text).expect("own output parses");
        assert_eq!(reparsed, instance.cnf);

        let mut solver = Solver::from_cnf(&reparsed, SolverConfig::default());
        let mut trace = MemorySink::new();
        assert!(solver.solve_traced(&mut trace).unwrap().is_unsat());
        // The trace from the reparsed formula checks against the original.
        check_unsat_claim(
            &instance.cnf,
            &trace,
            Strategy::BreadthFirst,
            &CheckConfig::default(),
        )
        .unwrap();
    }
}

#[test]
fn file_traces_in_both_formats_check() {
    let dir = std::env::temp_dir().join("rescheck-root-it");
    std::fs::create_dir_all(&dir).unwrap();
    let instance = workloads::parity::tseitin_cubic(10);

    let ascii_path = dir.join("cubic.rt");
    {
        let file = std::io::BufWriter::new(std::fs::File::create(&ascii_path).unwrap());
        let mut sink = AsciiWriter::new(file);
        let mut solver = Solver::from_cnf(&instance.cnf, SolverConfig::default());
        assert!(solver.solve_traced(&mut sink).unwrap().is_unsat());
        sink.flush().unwrap();
    }
    let bin_path = dir.join("cubic.rtb");
    {
        let file = std::io::BufWriter::new(std::fs::File::create(&bin_path).unwrap());
        let mut sink = BinaryWriter::new(file).unwrap();
        let mut solver = Solver::from_cnf(&instance.cnf, SolverConfig::default());
        assert!(solver.solve_traced(&mut sink).unwrap().is_unsat());
        sink.flush().unwrap();
    }

    for path in [&ascii_path, &bin_path] {
        let trace = FileTrace::open(path).unwrap();
        for strategy in Strategy::ALL {
            check_unsat_claim(&instance.cnf, &trace, strategy, &CheckConfig::default())
                .unwrap_or_else(|e| panic!("{path:?} {strategy}: {e}"));
        }
    }
    std::fs::remove_file(&ascii_path).ok();
    std::fs::remove_file(&bin_path).ok();
}

#[test]
fn core_minimization_over_families_with_padding() {
    // Embed each family's contradiction among satisfiable padding and
    // confirm minimization strips the padding (Table 3's application).
    let base = workloads::graph_color::clique_instance(3);
    let mut cnf = base.cnf.clone();
    let first_pad = cnf.num_clauses();
    let v0 = cnf.num_vars();
    for i in 0..25 {
        let a = Var::new(v0 + 2 * i);
        let b = Var::new(v0 + 2 * i + 1);
        cnf.add_clause([a.positive(), b.negative()]);
        cnf.add_clause([a.negative(), b.positive()]);
    }
    let result = minimize_core(&cnf, &SolverConfig::default(), 30).unwrap();
    assert!(
        result.core_ids.iter().all(|&id| id < first_pad),
        "padding must not appear in the core"
    );
}
