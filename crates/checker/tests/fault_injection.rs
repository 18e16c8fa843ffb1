//! Fault injection: corrupt real traces (and formulas) in targeted ways
//! and assert the checker rejects each corruption with a sensible
//! diagnostic. This is the checker's purpose — "if the solver claims that
//! the instance is unsatisfiable but the checker cannot construct an
//! empty clause, then a bug exists in the solver" (paper §1).

use rescheck_checker::{check_unsat_claim, CheckConfig, CheckError, Strategy};
use rescheck_cnf::{Cnf, Lit, Var};
use rescheck_solver::{Solver, SolverConfig};
use rescheck_trace::{MemorySink, TraceEvent, TraceSink};

fn pigeonhole(holes: usize) -> Cnf {
    let pigeons = holes + 1;
    let mut cnf = Cnf::new();
    let lit = |p: usize, h: usize| Lit::positive(Var::new(p * holes + h));
    for p in 0..pigeons {
        cnf.add_clause((0..holes).map(|h| lit(p, h)));
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                cnf.add_clause([!lit(p1, h), !lit(p2, h)]);
            }
        }
    }
    cnf
}

/// A real UNSAT instance plus its genuine trace.
fn solved_instance() -> (Cnf, Vec<TraceEvent>) {
    let cnf = pigeonhole(5);
    let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
    let mut sink = MemorySink::new();
    assert!(solver.solve_traced(&mut sink).unwrap().is_unsat());
    let events = sink.into_events();
    // The corruptions below assume a proof with learned clauses.
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::Learned { .. })));
    (cnf, events)
}

fn both_reject(cnf: &Cnf, events: &[TraceEvent], what: &str) -> Vec<CheckError> {
    Strategy::ALL
        .into_iter()
        .map(|strategy| {
            check_unsat_claim(cnf, &events.to_vec(), strategy, &CheckConfig::default())
                .map(|_| ())
                .expect_err(&format!("{strategy} must reject: {what}"))
        })
        .collect()
}

#[test]
fn genuine_trace_is_accepted() {
    let (cnf, events) = solved_instance();
    for strategy in Strategy::ALL {
        check_unsat_claim(&cnf, &events, strategy, &CheckConfig::default()).unwrap();
    }
}

#[test]
fn dropping_the_final_conflict_is_rejected() {
    let (cnf, mut events) = solved_instance();
    events.retain(|e| !matches!(e, TraceEvent::FinalConflict { .. }));
    for err in both_reject(&cnf, &events, "missing final conflict") {
        assert!(matches!(err, CheckError::NoFinalConflict));
    }
}

#[test]
fn dropping_a_resolve_source_is_rejected() {
    let (cnf, mut events) = solved_instance();
    // Remove one source from the middle of the first long learned clause.
    let target = events
        .iter_mut()
        .find_map(|e| match e {
            TraceEvent::Learned { sources, .. } if sources.len() >= 3 => Some(sources),
            _ => None,
        })
        .expect("a learned clause with ≥3 sources");
    target.remove(1);
    both_reject(&cnf, &events, "dropped resolve source");
}

#[test]
fn swapping_two_resolve_sources_within_a_clause_can_still_check() {
    // Folding resolution is order-sensitive in general, but adjacent
    // swaps sometimes remain valid — the point here is that the checker
    // never *wrongly errors on the genuine order*, and that, when a swap
    // breaks resolvability, it is reported as NotResolvable. We only
    // assert no panic and a deterministic verdict.
    let (cnf, mut events) = solved_instance();
    if let Some(TraceEvent::Learned { sources, .. }) = events
        .iter_mut()
        .find(|e| matches!(e, TraceEvent::Learned { sources, .. } if sources.len() >= 3))
    {
        sources.swap(1, 2);
    }
    for strategy in Strategy::ALL {
        let _ = check_unsat_claim(&cnf, &events, strategy, &CheckConfig::default());
    }
}

#[test]
fn pointing_a_source_at_the_wrong_clause_is_rejected() {
    let (cnf, mut events) = solved_instance();
    if let Some(TraceEvent::Learned { sources, .. }) = events
        .iter_mut()
        .find(|e| matches!(e, TraceEvent::Learned { .. }))
    {
        // Redirect the conflicting-clause source to an unrelated original.
        sources[0] = (sources[0] + 1) % 2;
        sources[0] += 1_000_000; // definitely undefined
    }
    for err in both_reject(&cnf, &events, "wild source id") {
        assert!(matches!(
            err,
            CheckError::UnknownClause { .. } | CheckError::ForwardReference { .. }
        ));
    }
}

#[test]
fn corrupting_level_zero_antecedents_is_rejected() {
    // Corrupting a record the final derivation never touches is not an
    // observable bug (the proof is still valid), so corrupt *all* of
    // them: the derivation must stumble on the ones it does use.
    let (cnf, mut events) = solved_instance();
    let mut changed = 0;
    for e in &mut events {
        if let TraceEvent::LevelZero { antecedent, .. } = e {
            // Point the antecedent at an unrelated original clause.
            *antecedent = (*antecedent + 1) % cnf.num_clauses() as u64;
            changed += 1;
        }
    }
    assert!(changed > 0, "trace has level-zero records");
    both_reject(&cnf, &events, "wrong level-0 antecedents");
}

#[test]
fn flipping_level_zero_values_is_rejected() {
    let (cnf, mut events) = solved_instance();
    for e in &mut events {
        if let TraceEvent::LevelZero { lit, .. } = e {
            *lit = !*lit;
        }
    }
    for err in both_reject(&cnf, &events, "flipped level-0 values") {
        // The final conflicting clause's literals are no longer false.
        assert!(matches!(
            err,
            CheckError::FinalClauseNotConflicting { .. }
                | CheckError::BadAntecedent { .. }
                | CheckError::NotResolvable { .. }
        ));
    }
}

#[test]
fn truncating_the_trace_is_rejected() {
    let (cnf, events) = solved_instance();
    // Cut everything after the first half, then re-append a final
    // conflict record pointing at the old final clause.
    let final_id = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::FinalConflict { id } => Some(*id),
            _ => None,
        })
        .unwrap();
    let mut truncated: Vec<TraceEvent> = events[..events.len() / 2].to_vec();
    truncated.retain(|e| !matches!(e, TraceEvent::FinalConflict { .. }));
    truncated.push(TraceEvent::FinalConflict { id: final_id });
    both_reject(&cnf, &truncated, "truncated trace");
}

#[test]
fn claiming_unsat_for_a_satisfiable_formula_is_rejected() {
    // A buggy solver claims UNSAT for a satisfiable formula by replaying
    // a structurally-valid-looking trace: the checker must not accept any
    // such trace. We fabricate the strongest attempt: resolutions that
    // are locally plausible but must break somewhere because no
    // refutation exists.
    let mut cnf = Cnf::new();
    cnf.add_dimacs_clause(&[1, 2]); // 0
    cnf.add_dimacs_clause(&[-1, 2]); // 1
    cnf.add_dimacs_clause(&[1, -2]); // 2  — satisfiable: x1=x2=true
    let mut sink = MemorySink::new();
    sink.learned(3, &[0, 1]).unwrap(); // (2)
    sink.learned(4, &[0, 2]).unwrap(); // (1)
    sink.level_zero(Lit::from_dimacs(2), 3).unwrap();
    sink.level_zero(Lit::from_dimacs(1), 4).unwrap();
    // Claim clause 2 = (1, -2) is the final conflict; its literal x1 is
    // true at level 0, so it is not conflicting.
    sink.final_conflict(2).unwrap();
    let events = sink.into_events();
    for err in both_reject(&cnf, &events, "UNSAT claim on SAT formula") {
        assert!(matches!(err, CheckError::FinalClauseNotConflicting { .. }));
    }
}

#[test]
fn solving_a_different_formula_is_rejected() {
    // Trace generated for PHP(6,5) checked against PHP(5,4): clause IDs
    // no longer line up; some step must fail.
    let (_, events) = solved_instance(); // PHP(6,5)
    let smaller = pigeonhole(4);
    for strategy in [Strategy::DepthFirst, Strategy::BreadthFirst] {
        assert!(
            check_unsat_claim(&smaller, &events, strategy, &CheckConfig::default()).is_err(),
            "{strategy} must reject a trace for a different formula"
        );
    }
}

#[test]
fn duplicated_learned_event_is_rejected() {
    let (cnf, mut events) = solved_instance();
    let dup = events
        .iter()
        .find(|e| matches!(e, TraceEvent::Learned { .. }))
        .cloned()
        .unwrap();
    events.insert(1, dup.clone());
    events.insert(1, dup);
    for err in both_reject(&cnf, &events, "duplicate learned id") {
        assert!(matches!(err, CheckError::DuplicateLearnedId { .. }));
    }
}

#[test]
fn error_messages_are_actionable() {
    // The diagnostics name the clause IDs involved (paper: "provide as
    // much information as possible about the failure").
    let (cnf, mut events) = solved_instance();
    if let Some(TraceEvent::Learned { sources, .. }) = events
        .iter_mut()
        .find(|e| matches!(e, TraceEvent::Learned { .. }))
    {
        sources[0] = 999_999_999;
    }
    let errs = both_reject(&cnf, &events, "wild id");
    for err in errs {
        let msg = err.to_string();
        assert!(msg.contains("999999999"), "diagnostic was: {msg}");
    }
}
