//! The depth-first checking strategy (paper §3.2, Fig. 3).
//!
//! Starting from the final conflicting clause, learned clauses are built
//! by resolution *on demand*, recursively following resolve sources. Only
//! the clauses involved in the empty-clause derivation are ever
//! constructed — between 19% and 90% of the learned clauses in the
//! paper's experiments — and the original clauses touched along the way
//! form an unsatisfiable core.
//!
//! The price is memory: the whole trace plus every built clause stays
//! resident, which is why the paper's depth-first checker memory-outs on
//! the two hardest instances. The same behaviour is reproducible here via
//! [`CheckConfig::memory_limit`](crate::CheckConfig::memory_limit).
//!
//! The walk itself ([`DfBuilder`]) is shared with the disk-backed
//! strategy ([`crate::disk_df`]): it is generic over [`SourceLists`],
//! the one place the two differ. Here the lists come from the resident
//! table [`load_full`] decodes; dfd fetches them through an offset index
//! and a trace cursor instead.
//!
//! Clause chains are resolved through the allocation-free
//! [`ResolutionKernel`] and stored in the flat [`ClauseArena`] rather
//! than as per-clause `Rc` allocations.

use crate::api::CheckConfig;
use crate::arena::ClauseArena;
use crate::cache::OriginalCache;
use crate::cancel::CancelFlag;
use crate::error::CheckError;
use crate::final_phase::{derive_empty_clause, ClauseProvider};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::kernel::{KernelStats, ResolutionKernel};
use crate::memory::MemoryMeter;
use crate::model::{load_full, LevelZeroMap};
use crate::outcome::{CheckOutcome, CheckStats, Strategy, UnsatCore};
use crate::resolve::normalize_literals;
use crate::scratch::{kernel_stats_since, CheckScratch};
use rescheck_cnf::{Cnf, Lit};
use rescheck_obs::{Event, Observer, Phase};
use rescheck_trace::TraceSource;
use std::sync::Arc;
use std::time::Instant;

/// Progress events are emitted once per this many built clauses; the
/// reporter applies its own (coarser) heartbeat threshold on top.
pub(crate) const PROGRESS_STRIDE: u64 = 1024;

pub(crate) fn run<S: TraceSource + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
    obs: &mut dyn Observer,
) -> Result<CheckOutcome, CheckError> {
    let mut scratch = CheckScratch::new();
    run_scoped(cnf, trace, config, &mut scratch, obs)
}

/// [`run`] against caller-owned scratch buffers: the kernel, arena and
/// original cache come from (and survive into) a [`CheckScratch`], so a
/// long-lived service reuses their capacity across jobs instead of
/// rebuilding them per check. Accounting is unchanged — see the
/// [`scratch`](crate::scratch) module docs.
pub(crate) fn run_scoped<S: TraceSource + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
    scratch: &mut CheckScratch,
    obs: &mut dyn Observer,
) -> Result<CheckOutcome, CheckError> {
    let start = Instant::now();
    let mut meter = MemoryMeter::new(config.memory_limit);

    // The depth-first approach reads the entire trace into main memory.
    let pass1 = Phase::start("check:pass1", obs);
    let mut full = load_full(trace, cnf.num_clauses(), &config.cancel)?;
    meter.alloc(full.trace_bytes)?;
    pass1.finish(obs);

    let start_id = *full.final_ids.first().ok_or(CheckError::NoFinalConflict)?;
    let learned_in_trace = full.sources.len() as u64;
    let mut builder = DfBuilder::new(cnf, &mut full.sources, meter, config, scratch, obs);
    builder.prove(start_id, &full.level_zero)?;
    Ok(builder.finish(
        Strategy::DepthFirst,
        learned_in_trace,
        start,
        trace.encoded_size(),
    ))
}

/// Reports the end-of-run gauges every strategy shares.
pub(crate) fn emit_check_gauges(obs: &mut dyn Observer, stats: &CheckStats, table_entries: u64) {
    obs.observe(&Event::GaugeSet {
        name: "check.clauses_built",
        value: stats.clauses_built as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.resolutions",
        value: stats.resolutions as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.use_count_entries",
        value: table_entries as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.peak_memory_bytes",
        value: stats.peak_memory_bytes as f64,
    });
}

/// Reports the resolution-kernel and clause-arena gauges.
pub(crate) fn emit_kernel_gauges(
    obs: &mut dyn Observer,
    kernel: &KernelStats,
    arena_bytes: u64,
    arena_reuse_hits: u64,
) {
    obs.observe(&Event::GaugeSet {
        name: "check.kernel.chains",
        value: kernel.chains as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.kernel.literals_folded",
        value: kernel.literals_folded as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.kernel.scratch_grows",
        value: kernel.scratch_grows as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.kernel.scratch_high_water",
        value: kernel.scratch_high_water as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.arena.bytes",
        value: arena_bytes as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.arena.reuse_hits",
        value: arena_reuse_hits as f64,
    });
}

/// Where the walk finds a learned clause's resolve sources — the one
/// thing depth-first and disk-backed depth-first do differently. Mirrors
/// [`ClauseProvider::clause_into`]: the list is written into a
/// caller-owned buffer.
pub(crate) trait SourceLists {
    /// Replaces `out`'s contents with the resolve sources of learned
    /// clause `id`, in trace order. `referenced_by` is the clause whose
    /// build asked for `id` (`None` for a root), reported when `id` is
    /// not defined.
    fn sources_into(
        &mut self,
        id: u64,
        referenced_by: Option<u64>,
        out: &mut Vec<u64>,
    ) -> Result<(), CheckError>;
}

/// Depth-first's resident table: the paper's in-memory model.
impl SourceLists for FxHashMap<u64, Vec<u64>> {
    fn sources_into(
        &mut self,
        id: u64,
        referenced_by: Option<u64>,
        out: &mut Vec<u64>,
    ) -> Result<(), CheckError> {
        let sources = self
            .get(&id)
            .ok_or(CheckError::UnknownClause { id, referenced_by })?;
        out.clear();
        out.extend_from_slice(sources);
        Ok(())
    }
}

/// Builds learned clauses on demand with memoization (the iterative
/// equivalent of Fig. 3's `recursive_build`), reading source lists
/// through `L`.
pub(crate) struct DfBuilder<'a, L: SourceLists> {
    cnf: &'a Cnf,
    lists: &'a mut L,
    num_original: usize,
    /// Learned clauses built so far (borrowed from the job's scratch).
    arena: &'a mut ClauseArena,
    /// Chain resolver; scratch reused across every build.
    kernel: &'a mut ResolutionKernel,
    /// Kernel counters at job start, so gauges report this job only.
    kernel_base: KernelStats,
    /// Normalized original clauses, cached on first use — charged to the
    /// meter like every other resident clause.
    original_cache: &'a mut OriginalCache,
    used_originals: Vec<bool>,
    meter: MemoryMeter,
    cancel: CancelFlag,
    resolutions: u64,
    clauses_built: u64,
    obs: &'a mut dyn Observer,
}

impl<'a, L: SourceLists> DfBuilder<'a, L> {
    /// Starts a run on `scratch` with the pass-1 charges already on
    /// `meter`.
    pub(crate) fn new(
        cnf: &'a Cnf,
        lists: &'a mut L,
        meter: MemoryMeter,
        config: &CheckConfig,
        scratch: &'a mut CheckScratch,
        obs: &'a mut dyn Observer,
    ) -> Self {
        let kernel_base = scratch.start_run();
        let (kernel, arena, original_cache) = scratch.parts();
        DfBuilder {
            cnf,
            lists,
            num_original: cnf.num_clauses(),
            arena,
            kernel,
            kernel_base,
            original_cache,
            used_originals: vec![false; cnf.num_clauses()],
            meter,
            cancel: config.cancel.clone(),
            resolutions: 0,
            clauses_built: 0,
            obs,
        }
    }

    /// Derives the empty clause from the final conflicting clause
    /// `start_id`: the resolve phase builds its dependency cone — the
    /// bulk of the resolution work — and the final phase builds the
    /// remaining level-0 antecedents lazily.
    pub(crate) fn prove(
        &mut self,
        start_id: u64,
        level_zero: &LevelZeroMap,
    ) -> Result<(), CheckError> {
        let resolve_phase = Phase::start("check:resolve", &mut *self.obs);
        self.build(start_id)?;
        resolve_phase.finish(&mut *self.obs);

        let final_phase = Phase::start("final-phase", &mut *self.obs);
        let final_stats = derive_empty_clause(start_id, level_zero, self)?;
        final_phase.finish(&mut *self.obs);
        self.resolutions += final_stats.resolutions;
        Ok(())
    }

    /// Collects the unsat core and the stats after [`DfBuilder::prove`],
    /// and reports the end-of-run gauges.
    pub(crate) fn finish(
        self,
        strategy: Strategy,
        learned_in_trace: u64,
        start: Instant,
        trace_bytes: Option<u64>,
    ) -> CheckOutcome {
        let core_ids: Vec<usize> = self
            .used_originals
            .iter()
            .enumerate()
            .filter(|(_, &used)| used)
            .map(|(i, _)| i)
            .collect();
        let stats = CheckStats {
            strategy,
            learned_in_trace,
            clauses_built: self.clauses_built,
            resolutions: self.resolutions,
            peak_memory_bytes: self.meter.peak(),
            runtime: start.elapsed(),
            trace_bytes,
        };
        emit_check_gauges(self.obs, &stats, self.arena.len() as u64);
        // Per-job deltas, so metrics stay meaningful when the kernel came
        // from a warm scratch with lifetime totals already on the clock.
        emit_kernel_gauges(
            self.obs,
            &kernel_stats_since(&self.kernel.stats(), &self.kernel_base),
            self.arena.charged_bytes(),
            self.arena.reuse_hits(),
        );
        CheckOutcome {
            core: Some(UnsatCore::new(core_ids, self.cnf)),
            stats,
        }
    }

    fn original(&mut self, id: u64) -> Arc<[Lit]> {
        self.used_originals[id as usize] = true;
        if let Some(c) = self.original_cache.get(id) {
            return c;
        }
        // A warm scratch may still hold the normalized clause from the
        // previous job on this formula; promoting it re-inserts through
        // the charged path, so this job's meter pays the same bytes at
        // the same point a cold run would.
        let lits: Arc<[Lit]> = self.original_cache.take_warm(id).unwrap_or_else(|| {
            let clause = self.cnf.clause(id as usize).expect("id < num_original");
            Arc::from(normalize_literals(clause.iter().copied()))
        });
        self.original_cache.insert(id, &lits, &mut self.meter);
        lits
    }

    /// Seeds (step 0) or folds (later steps) one source clause into the
    /// kernel.
    fn feed_source(&mut self, target: u64, step: usize, source: u64) -> Result<(), CheckError> {
        if source < self.num_original as u64 {
            let clause = self.original(source);
            if step == 0 {
                self.kernel.begin(&clause);
                return Ok(());
            }
            self.kernel.fold(&clause)
        } else {
            // Split borrow: the arena slice is read while the kernel's
            // disjoint scratch buffers are written.
            let Some(clause) = self.arena.get(source) else {
                return Err(CheckError::UnknownClause {
                    id: source,
                    referenced_by: Some(target),
                });
            };
            if step == 0 {
                self.kernel.begin(clause);
                return Ok(());
            }
            self.kernel.fold(clause)
        }
        .map_err(|failure| CheckError::NotResolvable {
            target: Some(target),
            step,
            with: source,
            failure,
        })?;
        self.resolutions += 1;
        Ok(())
    }

    /// Builds one learned clause from its already-built sources.
    fn build_one(&mut self, id: u64, sources: &[u64]) -> Result<(), CheckError> {
        for (step, &s) in sources.iter().enumerate() {
            self.feed_source(id, step, s)?;
        }
        let lits = self.kernel.finish();
        let clause_len = lits.len() as u64;
        let arena = &mut *self.arena;
        self.original_cache
            .make_room(&mut self.meter, |meter| arena.insert(id, lits, meter))?;
        self.obs.observe(&Event::HistRecord {
            name: "check.resolve.chain_len",
            value: sources.len() as u64,
        });
        self.obs.observe(&Event::HistRecord {
            name: "check.resolve.clause_len",
            value: clause_len,
        });
        self.clauses_built += 1;
        if self.clauses_built.is_multiple_of(PROGRESS_STRIDE) {
            self.cancel.check()?;
            self.obs.observe(&Event::Progress {
                phase: "check:resolve",
                done: self.clauses_built,
                unit: "clauses",
                detail: None,
            });
        }
        Ok(())
    }

    /// Ensures clause `id` (and transitively its sources) is built.
    ///
    /// Iterative DFS over the resolve-source DAG with explicit gray
    /// marking, so deep proofs cannot overflow the native stack and
    /// cycles are detected rather than looping. A node's source list is
    /// fetched twice — once to push its children, once to build it — so
    /// the walk holds no list longer than one step.
    fn build(&mut self, id: u64) -> Result<(), CheckError> {
        if id < self.num_original as u64 || self.arena.contains(id) {
            return Ok(());
        }
        let mut gray: FxHashSet<u64> = FxHashSet::default();
        let mut stack: Vec<(u64, Option<u64>)> = vec![(id, None)];
        let mut sources: Vec<u64> = Vec::new();
        while let Some(&(cur, parent)) = stack.last() {
            if cur < self.num_original as u64 || self.arena.contains(cur) {
                stack.pop();
                continue;
            }
            self.lists.sources_into(cur, parent, &mut sources)?;
            if gray.contains(&cur) {
                // All dependencies were pushed; if one is still gray
                // the graph has a cycle, otherwise build now.
                for &s in &sources {
                    if s >= self.num_original as u64 && !self.arena.contains(s) && gray.contains(&s)
                    {
                        return Err(CheckError::CyclicProof { id: s });
                    }
                }
                self.build_one(cur, &sources)?;
                stack.pop();
            } else {
                gray.insert(cur);
                for &s in &sources {
                    if s >= self.num_original as u64 && !self.arena.contains(s) {
                        if gray.contains(&s) {
                            return Err(CheckError::CyclicProof { id: s });
                        }
                        stack.push((s, Some(cur)));
                    }
                }
            }
        }
        Ok(())
    }
}

impl<L: SourceLists> ClauseProvider for DfBuilder<'_, L> {
    fn clause_into(&mut self, id: u64, out: &mut Vec<Lit>) -> Result<(), CheckError> {
        if id < self.num_original as u64 {
            let clause = self.original(id);
            out.clear();
            out.extend_from_slice(&clause);
            return Ok(());
        }
        self.build(id)?;
        let clause = self.arena.get(id).expect("build(id) succeeded");
        out.clear();
        out.extend_from_slice(clause);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescheck_obs::NullObserver;
    use rescheck_trace::{MemorySink, TraceEvent, TraceSink};

    /// Checks `sink` with both depth-first walks: df's resident table and
    /// dfd's offset index, which must agree on every outcome.
    fn both(cnf: &Cnf, sink: &MemorySink) -> [Result<CheckOutcome, CheckError>; 2] {
        let config = CheckConfig::default();
        [
            run(cnf, sink, &config, &mut NullObserver),
            crate::disk_df::run(cnf, sink, &config, &mut NullObserver),
        ]
    }

    /// (x1)(¬x1∨x2)(¬x2): level-0 chain, conflict on clause 2 directly.
    fn chain_trace() -> (Cnf, MemorySink) {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        cnf.add_dimacs_clause(&[-1, 2]);
        cnf.add_dimacs_clause(&[-2]);
        let mut sink = MemorySink::new();
        sink.level_zero(Lit::from_dimacs(1), 0).unwrap();
        sink.level_zero(Lit::from_dimacs(2), 1).unwrap();
        sink.final_conflict(2).unwrap();
        (cnf, sink)
    }

    #[test]
    fn accepts_handwritten_level_zero_proof() {
        let (cnf, sink) = chain_trace();
        let outcome = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap();
        let core = outcome.core.unwrap();
        assert_eq!(core.clause_ids, vec![0, 1, 2]);
        assert_eq!(outcome.stats.clauses_built, 0); // no learned clauses
        assert_eq!(outcome.stats.resolutions, 2);
    }

    #[test]
    fn accepts_proof_with_learned_clause() {
        // Clauses: (1 2)(1 -2)(-1 2)(-1 -2).
        // Learned #4 = resolve(#0,#1) = (1); learned #5 = resolve(#2,#3)
        // = (-1). Level 0: x1 by #4, conflict on #5.
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[1, -2]);
        cnf.add_dimacs_clause(&[-1, 2]);
        cnf.add_dimacs_clause(&[-1, -2]);
        let mut sink = MemorySink::new();
        sink.learned(4, &[0, 1]).unwrap();
        sink.learned(5, &[2, 3]).unwrap();
        sink.level_zero(Lit::from_dimacs(1), 4).unwrap();
        sink.final_conflict(5).unwrap();

        let outcome = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap();
        assert_eq!(outcome.stats.clauses_built, 2);
        assert_eq!(outcome.stats.learned_in_trace, 2);
        let core = outcome.core.unwrap();
        assert_eq!(core.clause_ids, vec![0, 1, 2, 3]);
        assert_eq!(core.num_vars(), 2);
    }

    #[test]
    fn builds_only_needed_clauses() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        cnf.add_dimacs_clause(&[-1, 2]);
        cnf.add_dimacs_clause(&[-2]);
        cnf.add_dimacs_clause(&[3, 4]);
        cnf.add_dimacs_clause(&[3, -4]);
        let mut sink = MemorySink::new();
        // An irrelevant learned clause that the proof never touches.
        sink.learned(5, &[3, 4]).unwrap();
        sink.level_zero(Lit::from_dimacs(1), 0).unwrap();
        sink.level_zero(Lit::from_dimacs(2), 1).unwrap();
        sink.final_conflict(2).unwrap();

        for outcome in both(&cnf, &sink) {
            let outcome = outcome.unwrap();
            assert_eq!(outcome.stats.clauses_built, 0);
            assert!((outcome.stats.built_percent() - 0.0).abs() < 1e-9);
            // The unused original clauses are not in the core.
            assert_eq!(outcome.core.unwrap().clause_ids, vec![0, 1, 2]);
        }
    }

    #[test]
    fn missing_final_conflict_is_rejected() {
        let (cnf, mut sink) = chain_trace();
        let events: Vec<TraceEvent> = sink
            .events()
            .iter()
            .filter(|e| !matches!(e, TraceEvent::FinalConflict { .. }))
            .cloned()
            .collect();
        sink = events.into();
        for outcome in both(&cnf, &sink) {
            assert!(matches!(outcome.unwrap_err(), CheckError::NoFinalConflict));
        }
    }

    #[test]
    fn unknown_source_is_rejected() {
        let (cnf, mut sink) = chain_trace();
        sink.learned(10, &[0, 99]).unwrap();
        sink.level_zero(Lit::from_dimacs(3), 10).unwrap();
        // Make the proof need clause 10 by pointing a var at it… easier:
        // final conflict on the unknown learned clause id directly.
        let mut events = sink.into_events();
        events.retain(|e| !matches!(e, TraceEvent::FinalConflict { .. }));
        events.push(TraceEvent::FinalConflict { id: 10 });
        let sink: MemorySink = events.into();
        for outcome in both(&cnf, &sink) {
            assert!(matches!(
                outcome.unwrap_err(),
                CheckError::UnknownClause {
                    id: 99,
                    referenced_by: Some(10)
                }
            ));
        }
    }

    #[test]
    fn cyclic_proof_is_rejected() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        let mut sink = MemorySink::new();
        sink.learned(1, &[2, 0]).unwrap();
        sink.learned(2, &[1, 0]).unwrap();
        sink.final_conflict(1).unwrap();
        for outcome in both(&cnf, &sink) {
            assert!(matches!(
                outcome.unwrap_err(),
                CheckError::CyclicProof { .. }
            ));
        }
    }

    #[test]
    fn invalid_resolution_is_rejected_with_target() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[3, 4]); // shares nothing with clause 0
        let mut sink = MemorySink::new();
        sink.learned(2, &[0, 1]).unwrap();
        sink.final_conflict(2).unwrap();
        let err = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap_err();
        match err {
            CheckError::NotResolvable {
                target: Some(2),
                step: 1,
                with: 1,
                failure,
            } => assert!(failure.clashing_vars.is_empty()),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn memory_limit_reproduces_df_memory_out() {
        let (cnf, sink) = chain_trace();
        let config = CheckConfig {
            memory_limit: Some(1),
            ..CheckConfig::default()
        };
        let err = run(&cnf, &sink, &config, &mut NullObserver).unwrap_err();
        assert!(matches!(err, CheckError::MemoryLimitExceeded { .. }));
    }

    #[test]
    fn diamond_dependencies_are_not_a_cycle() {
        // #4 is a resolve source of both #5 and #6, which merge in #7 —
        // a diamond in the proof DAG. It must build each node once and
        // not be mistaken for a cycle.
        //
        //   #4 = r(#0,#1) = (1 3)
        //   #5 = r(#4,#2) = (1 4)
        //   #6 = r(#4,#3) = (1 -4)
        //   #7 = r(#5,#6) = (1)
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]); // 0
        cnf.add_dimacs_clause(&[-2, 3]); // 1
        cnf.add_dimacs_clause(&[-3, 4]); // 2
        cnf.add_dimacs_clause(&[-3, -4]); // 3
        let mut sink = MemorySink::new();
        sink.learned(4, &[0, 1]).unwrap();
        sink.learned(5, &[4, 2]).unwrap();
        sink.learned(6, &[4, 3]).unwrap();
        sink.learned(7, &[5, 6]).unwrap();

        let mut full = load_full(&sink, cnf.num_clauses(), &CancelFlag::default()).unwrap();
        let mut scratch = CheckScratch::new();
        let mut obs = NullObserver;
        let mut builder = DfBuilder::new(
            &cnf,
            &mut full.sources,
            MemoryMeter::unlimited(),
            &CheckConfig::default(),
            &mut scratch,
            &mut obs,
        );
        builder.build(7).unwrap();
        assert_eq!(builder.clauses_built, 4); // each node built exactly once
        assert_eq!(
            builder.arena.get(7).unwrap(),
            normalize_literals([Lit::from_dimacs(1)]).as_slice()
        );
    }
}
