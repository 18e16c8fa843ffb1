//! The parallel-dag checking strategy: breadth-first's verification
//! set rebuilt from a dense, index-addressed dependency graph.
//!
//! The antecedent lists of a resolve trace form a DAG: a learned clause
//! depends only on the learned clauses it resolves with. This module
//! turns the trace into a dense form of that DAG — one node per learned
//! clause in trace order and a flat tagged source list — and then walks
//! the nodes in trace order on one thread. Trace order is already a
//! topological order (edges only point backward), so every source is
//! resolved before its dependents.
//!
//! Everything id-shaped is resolved to a dense index *here*, once, on
//! the build pass: original antecedents become indices into a
//! pre-normalized clause table, learned antecedents become node indices.
//! The resolution walk therefore performs **zero hash lookups** — the
//! difference from the breadth-first pass 2, which pays three to four
//! hash operations per resolve source.
//!
//! The name is historical: the strategy once scheduled this graph across
//! work-stealing threads. A serial walk gave the fastest verdict on every
//! measured trace, so the threads are gone (DESIGN.md §10); the `pdag`
//! name and the printed `parallel-dag` label stay for scripts that parse
//! them.
//!
//! ## Error parity with breadth-first
//!
//! Pass 1 is shared verbatim ([`sequential_pass1`]), so malformed-trace
//! errors are identical by construction. The build pass stops at the
//! first *structurally* missing source (a forward reference or an
//! unknown clause — exactly the condition under which breadth-first's
//! pass 2 would fail), records which node and step stopped it, and
//! builds no nodes beyond. The walk still resolves the stopped node's
//! prefix first: a fold failure at an earlier step of the same node
//! outranks the structural error, just as the sequential per-step loop
//! would report it.

use crate::api::CheckConfig;
use crate::breadth_first::{sequential_pass1, Pass1Tables};
use crate::cancel::CancelFlag;
use crate::error::CheckError;
use crate::final_phase::{derive_empty_clause, ClauseProvider};
use crate::fxhash::FxHashMap;
use crate::kernel::ResolutionKernel;
use crate::memory::{clause_bytes, MemoryMeter, DAG_NODE_BYTES, DAG_SOURCE_BYTES};
use crate::model::{establish_map, finish_visit, learned_capacity_hint, park_check_error};
use crate::outcome::{CheckOutcome, CheckStats, Strategy};
use crate::resolve::normalize_literals;
use rescheck_cnf::{Cnf, Lit};
use rescheck_obs::{Event, Observer, Phase};
use rescheck_trace::{EventRef, RandomAccessTrace, TraceSource};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Tag bit marking a source entry as an index into [`Dag::originals`]
/// rather than a node index. Node counts are validated against this
/// bound during the build.
const ORIGINAL_TAG: u32 = 1 << 31;

/// One learned clause of the trace, in trace order.
#[derive(Clone, Copy, Debug)]
struct DagNode {
    /// The clause id the trace assigned.
    pub id: u64,
    /// Range into [`Dag::srcs`] holding this node's resolve sources.
    pub src_start: u32,
    /// End of the source range (exclusive).
    pub src_end: u32,
    /// Times this clause is used as a resolve source later in the trace;
    /// the resolution walk counts it down and frees the clause at zero.
    pub use_count: u32,
    /// Whether the final derivation needs this clause kept resident.
    pub pinned: bool,
    /// Whether the resolvent is stored at all (`use_count > 0 || pinned`);
    /// a `false` here is a dead-on-arrival clause, verified then dropped.
    pub stored: bool,
}

impl DagNode {
    /// Resolution steps this node performs (chain length minus the seed).
    pub fn resolutions(&self) -> u64 {
        u64::from(self.src_end - self.src_start).saturating_sub(1)
    }
}

/// Where and why the build pass stopped early: `node`'s source at `step`
/// named a clause that can never be available. Plain data so the
/// resolution walk can reconstruct the precise [`CheckError`] if the node's
/// prefix folds cleanly.
#[derive(Clone, Copy, Debug)]
struct StructuralStop {
    /// Index of the truncated node.
    pub node: u32,
    /// The missing clause id.
    pub missing: u64,
    /// `true` when `missing` is defined later in the trace (a forward
    /// reference); `false` when it is defined nowhere.
    pub forward: bool,
}

impl StructuralStop {
    /// The error breadth-first's pass 2 would report at this point.
    pub fn to_error(self, node_id: u64) -> CheckError {
        if self.forward {
            CheckError::ForwardReference {
                id: node_id,
                source: self.missing,
            }
        } else {
            CheckError::UnknownClause {
                id: self.missing,
                referenced_by: Some(node_id),
            }
        }
    }
}

/// The dense dependency graph the resolution walk visits.
#[derive(Default)]
struct Dag {
    /// Learned clauses in trace order.
    pub nodes: Vec<DagNode>,
    /// Flat tagged source lists ([`ORIGINAL_TAG`] ⇒ original index,
    /// otherwise node index), sliced per node by `src_start..src_end`.
    pub srcs: Vec<u32>,
    /// Pre-normalized original clauses, in first-reference order.
    pub originals: Vec<Box<[Lit]>>,
    /// Dense original index → trace clause id (for diagnostics).
    pub orig_ids: Vec<u64>,
    /// Original clause id → dense index into [`Dag::originals`].
    pub orig_index: FxHashMap<u64, u32>,
    /// Learned clause id → node index (final-phase lookups only; the
    /// resolution pass never consults it).
    pub id_to_node: FxHashMap<u64, u32>,
    /// Set when the build stopped at a structurally missing source.
    pub structural: Option<StructuralStop>,
}

impl Dag {
    /// The tagged source slice of `node`.
    pub fn sources(&self, node: u32) -> &[u32] {
        let n = &self.nodes[node as usize];
        &self.srcs[n.src_start as usize..n.src_end as usize]
    }

    /// The trace id a tagged source entry refers to.
    pub fn source_id(&self, src: u32) -> u64 {
        if src & ORIGINAL_TAG != 0 {
            self.orig_ids[(src & !ORIGINAL_TAG) as usize]
        } else {
            self.nodes[src as usize].id
        }
    }
}

/// Normalizes and interns one original clause, charging the meter once.
fn intern_original(
    dag: &mut Dag,
    cnf: &Cnf,
    id: u64,
    meter: &mut MemoryMeter,
) -> Result<u32, CheckError> {
    if let Some(&ix) = dag.orig_index.get(&id) {
        return Ok(ix);
    }
    let lits: Box<[Lit]> = normalize_literals(
        cnf.clause(id as usize)
            .expect("id < num_original")
            .iter()
            .copied(),
    )
    .into();
    meter.alloc(clause_bytes(lits.len()))?;
    let ix = dag.originals.len() as u32;
    dag.originals.push(lits);
    dag.orig_ids.push(id);
    dag.orig_index.insert(id, ix);
    Ok(ix)
}

/// Builds the dense DAG from a second streaming pass over the trace.
///
/// Original antecedents are normalized once and charged to the meter
/// up front (first-reference order, then the level-0 antecedents and
/// the start clause for the final phase); the graph metadata is charged
/// per node and per source entry. `learned_hint` pre-sizes the node
/// table and id map (see [`learned_capacity_hint`]).
fn build<S: TraceSource + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    tables: &Pass1Tables,
    start_id: u64,
    meter: &mut MemoryMeter,
    cancel: &CancelFlag,
    learned_hint: Option<usize>,
) -> Result<Dag, CheckError> {
    let num_original = cnf.num_clauses();
    let mut dag = Dag::default();
    if let Some(hint) = learned_hint {
        dag.nodes.reserve(hint);
        dag.id_to_node.reserve(hint);
    }

    let mut seen: u64 = 0;
    let mut parked = None;
    let result = trace.visit_events(&mut |event: EventRef<'_>| {
        let step = (|| -> Result<(), CheckError> {
            let EventRef::Learned { id, sources } = event else {
                return Ok(());
            };
            if dag.structural.is_some() {
                // Nothing past the stop can run; skip the rest cheaply.
                return Ok(());
            }
            seen += 1;
            if seen.is_multiple_of(crate::depth_first::PROGRESS_STRIDE) {
                cancel.check()?;
            }
            if dag.nodes.len() as u32 >= ORIGINAL_TAG {
                return Err(CheckError::Trace(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "trace exceeds the parallel-dag node limit (2^31 learned clauses)",
                )));
            }
            let node = dag.nodes.len() as u32;
            let src_start = dag.srcs.len() as u32;
            for &s in sources {
                if s < num_original as u64 {
                    let ix = intern_original(&mut dag, cnf, s, meter)?;
                    dag.srcs.push(ix | ORIGINAL_TAG);
                } else if let Some(&j) = dag.id_to_node.get(&s) {
                    dag.srcs.push(j);
                } else {
                    // Truncate at the first structurally missing source;
                    // the walk folds the prefix, then reports this.
                    dag.structural = Some(StructuralStop {
                        node,
                        missing: s,
                        forward: tables.defined.contains(&s),
                    });
                    break;
                }
            }
            let use_count = tables.use_counts.get(&id).copied().unwrap_or(0);
            let pinned = tables.pinned.contains(&id);
            dag.nodes.push(DagNode {
                id,
                src_start,
                src_end: dag.srcs.len() as u32,
                use_count,
                pinned,
                stored: dag.structural.is_none() && (use_count > 0 || pinned),
            });
            if dag.structural.is_none() {
                dag.id_to_node.insert(id, node);
            }
            Ok(())
        })();
        step.map_err(|e| park_check_error(&mut parked, e))
    });
    finish_visit(parked, result)?;

    // The final phase fetches the level-0 antecedents and the start
    // clause; intern the original ones now so its lookups are dense too.
    for rec in tables.level_zero.records() {
        if rec.antecedent < num_original as u64 {
            intern_original(&mut dag, cnf, rec.antecedent, meter)?;
        }
    }
    if start_id < num_original as u64 {
        intern_original(&mut dag, cnf, start_id, meter)?;
    }

    meter.alloc(
        dag.nodes.len() as u64 * DAG_NODE_BYTES + dag.srcs.len() as u64 * DAG_SOURCE_BYTES,
    )?;
    Ok(dag)
}

/// What the resolution walk hands back on success.
struct Resolved {
    /// The meter after every commit (its peak is the reported stat).
    meter: MemoryMeter,
    /// Resolution steps performed across all nodes.
    resolutions: u64,
    /// Nodes resolved (every learned clause, on success).
    clauses_built: u64,
    /// Completion slots; pinned nodes still hold their clause for the
    /// final phase, free-at-last-use already emptied the rest.
    slots: Vec<Option<Box<[Lit]>>>,
}

/// Renders a caught panic payload into a printable message. Panics carry
/// `&str` or `String` payloads from `panic!`; anything else (a custom
/// `panic_any`) is reported opaquely rather than dropped.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    let what = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!("parallel-dag resolution panicked: {what}")
}

/// Resolves every node in trace order with plain vectors, then commits
/// it: sources whose last use this was are freed first, then the
/// resolvent is stored — breadth-first's free-then-store order, so the
/// meter's peak follows the same discipline. Each node's resolution runs
/// under `catch_unwind`, so a checker bug surfaces as
/// [`CheckError::WorkerPanic`] (exit 5) instead of aborting a daemon.
fn resolve_in_order(
    dag: &mut Dag,
    mut meter: MemoryMeter,
    cancel: &CancelFlag,
    obs: &mut dyn Observer,
) -> Result<Resolved, CheckError> {
    let total = dag.nodes.len();
    let mut slots: Vec<Option<Box<[Lit]>>> = (0..total).map(|_| None).collect();
    let mut resolutions = 0u64;
    let mut clauses_built = 0u64;
    let mut kernel = ResolutionKernel::new();
    for i in 0..total {
        let node = i as u32;
        let meta = dag.nodes[i];
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<Box<[Lit]>, CheckError> {
            for (step, &s) in dag.sources(node).iter().enumerate() {
                let clause: &[Lit] = if s & ORIGINAL_TAG != 0 {
                    &dag.originals[(s & !ORIGINAL_TAG) as usize]
                } else {
                    slots[s as usize]
                        .as_deref()
                        .expect("trace-order walk resolves sources before dependents")
                };
                if step == 0 {
                    kernel.begin(clause);
                    continue;
                }
                kernel
                    .fold(clause)
                    .map_err(|failure| CheckError::NotResolvable {
                        target: Some(meta.id),
                        step,
                        with: dag.source_id(s),
                        failure,
                    })?;
            }
            if let Some(stop) = dag.structural {
                if stop.node == node {
                    return Err(stop.to_error(meta.id));
                }
            }
            Ok(kernel.finish().into())
        }));
        let lits = match outcome {
            Ok(result) => result?,
            Err(payload) => {
                return Err(CheckError::WorkerPanic {
                    what: panic_message(payload.as_ref()),
                })
            }
        };
        obs.observe(&Event::HistRecord {
            name: "check.resolve.chain_len",
            value: u64::from(meta.src_end - meta.src_start),
        });

        // Commit: free last-use sources, then store.
        for k in meta.src_start..meta.src_end {
            let s = dag.srcs[k as usize];
            if s & ORIGINAL_TAG != 0 {
                continue;
            }
            let j = s as usize;
            let source = &mut dag.nodes[j];
            source.use_count -= 1;
            if source.use_count == 0 && !source.pinned {
                if let Some(freed) = slots[j].take() {
                    meter.free(clause_bytes(freed.len()));
                }
            }
        }
        if meta.stored {
            meter.alloc(clause_bytes(lits.len()))?;
            obs.observe(&Event::HistRecord {
                name: "check.resolve.clause_len",
                value: lits.len() as u64,
            });
            slots[i] = Some(lits);
        }
        resolutions += meta.resolutions();
        clauses_built += 1;
        if clauses_built.is_multiple_of(crate::depth_first::PROGRESS_STRIDE) {
            cancel.check()?;
        }
    }
    crate::depth_first::emit_kernel_gauges(obs, &kernel.stats(), 0, 0);

    Ok(Resolved {
        meter,
        resolutions,
        clauses_built,
        slots,
    })
}

/// A [`ClauseProvider`] over the built DAG and the walk's surviving
/// completion slots: originals through the dense pre-normalized table,
/// pinned learned clauses through their node slots.
struct DagProvider<'a> {
    dag: &'a Dag,
    num_original: usize,
    slots: Vec<Option<Box<[Lit]>>>,
}

impl ClauseProvider for DagProvider<'_> {
    fn clause_into(&mut self, id: u64, out: &mut Vec<Lit>) -> Result<(), CheckError> {
        let missing = |id| CheckError::UnknownClause {
            id,
            referenced_by: None,
        };
        let lits: &[Lit] = if id < self.num_original as u64 {
            match self.dag.orig_index.get(&id) {
                Some(&ix) => &self.dag.originals[ix as usize],
                None => return Err(missing(id)),
            }
        } else {
            match self
                .dag
                .id_to_node
                .get(&id)
                .and_then(|&n| self.slots[n as usize].as_deref())
            {
                Some(clause) => clause,
                None => return Err(missing(id)),
            }
        };
        out.clear();
        out.extend_from_slice(lits);
        Ok(())
    }
}

/// The parallel-dag checker: pass 1 shared with breadth-first, a dense
/// dependency-graph build, the trace-order resolution walk, and the
/// final empty-clause derivation over the surviving slots.
pub(crate) fn run<S: RandomAccessTrace + ?Sized>(
    cnf: &Cnf,
    trace: &S,
    config: &CheckConfig,
    obs: &mut dyn Observer,
) -> Result<CheckOutcome, CheckError> {
    let started = Instant::now();
    let num_original = cnf.num_clauses();
    let map = establish_map(trace, config, obs);
    let mut meter = MemoryMeter::new(config.memory_limit);
    if let Some(map) = map {
        // The encoded trace stays resident (mapped or buffered) for the
        // whole check; charging it under both backings keeps the peak
        // independent of `--no-mmap`.
        meter.alloc(map.accounted_bytes())?;
    }
    let learned_hint = learned_capacity_hint(map);

    let pass1 = Phase::start("check:pass1", obs);
    let (tables, start_id) = sequential_pass1(trace, num_original, learned_hint, &config.cancel)?;
    meter.alloc(tables.resident_bytes())?;
    pass1.finish(obs);

    let build_phase = Phase::start("check:dag-build", obs);
    let mut dag = build(
        cnf,
        trace,
        &tables,
        start_id,
        &mut meter,
        &config.cancel,
        learned_hint,
    )?;
    build_phase.finish(obs);

    let resolve_phase = Phase::start("check:resolve", obs);
    let Resolved {
        meter,
        resolutions,
        clauses_built,
        slots,
    } = resolve_in_order(&mut dag, meter, &config.cancel, obs)?;
    resolve_phase.finish(obs);

    let final_phase = Phase::start("final-phase", obs);
    let mut provider = DagProvider {
        dag: &dag,
        num_original,
        slots,
    };
    let final_stats = derive_empty_clause(start_id, &tables.level_zero, &mut provider)?;
    final_phase.finish(obs);

    let stats = CheckStats {
        strategy: Strategy::ParallelDag,
        learned_in_trace: tables.defined.len() as u64,
        clauses_built,
        resolutions: resolutions + final_stats.resolutions,
        peak_memory_bytes: meter.peak(),
        runtime: started.elapsed(),
        trace_bytes: trace.encoded_size(),
    };
    crate::depth_first::emit_check_gauges(obs, &stats, tables.use_counts.len() as u64);
    Ok(CheckOutcome { core: None, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FailureKind;
    use rescheck_obs::NullObserver;
    use rescheck_trace::{BinaryWriter, FileTrace, MemorySink, TraceEvent, TraceSink};

    fn chain(n: i64) -> (Cnf, MemorySink) {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        for i in 1..n {
            cnf.add_dimacs_clause(&[-i, i + 1]);
        }
        cnf.add_dimacs_clause(&[-n]);
        let mut sink = MemorySink::new();
        let mut prev = 0u64;
        for i in 1..n {
            let next_id = (n + i) as u64;
            sink.learned(next_id, &[prev, i as u64]).unwrap();
            prev = next_id;
        }
        sink.level_zero(Lit::from_dimacs(n), prev).unwrap();
        sink.final_conflict(n as u64).unwrap();
        (cnf, sink)
    }

    fn build_trace(cnf: &Cnf, sink: &MemorySink) -> Dag {
        let (tables, start_id) =
            sequential_pass1(sink, cnf.num_clauses(), None, &CancelFlag::default()).unwrap();
        let mut meter = MemoryMeter::unlimited();
        build(
            cnf,
            sink,
            &tables,
            start_id,
            &mut meter,
            &CancelFlag::default(),
            None,
        )
        .unwrap()
    }

    fn build_chain(n: i64) -> Dag {
        let (cnf, sink) = chain(n);
        build_trace(&cnf, &sink)
    }

    #[test]
    fn chain_trace_builds_a_path_graph() {
        let dag = build_chain(16);
        assert_eq!(dag.nodes.len(), 15);
        // First node resolves two originals; every later node depends on
        // exactly the previous one.
        assert!(dag.sources(0).iter().all(|&s| s & ORIGINAL_TAG != 0));
        for i in 1..dag.nodes.len() as u32 {
            let learned: Vec<u32> = dag
                .sources(i)
                .iter()
                .copied()
                .filter(|&s| s & ORIGINAL_TAG == 0)
                .collect();
            assert_eq!(learned, [i - 1], "node {i}");
        }
        // The last node is pinned by the level-0 record; the rest are
        // used exactly once each.
        let last = dag.nodes.last().unwrap();
        assert!(last.pinned && last.stored);
        for n in &dag.nodes[..dag.nodes.len() - 1] {
            assert_eq!(n.use_count, 1);
            assert!(n.stored && !n.pinned);
        }
        assert!(dag.structural.is_none());
    }

    #[test]
    fn source_ids_round_trip_through_the_tags() {
        let dag = build_chain(8);
        // Node 0's sources are originals 0 and 1.
        let srcs = dag.sources(0);
        assert!(srcs.iter().all(|&s| s & ORIGINAL_TAG != 0));
        assert_eq!(dag.source_id(srcs[0]), 0);
        assert_eq!(dag.source_id(srcs[1]), 1);
        // Node 1's first source is node 0 (learned id 9 for n=8).
        let srcs = dag.sources(1);
        assert_eq!(srcs[0] & ORIGINAL_TAG, 0);
        assert_eq!(dag.source_id(srcs[0]), dag.nodes[0].id);
    }

    #[test]
    fn forward_reference_truncates_the_build() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[1, -2]);
        cnf.add_dimacs_clause(&[-1, 2]);
        cnf.add_dimacs_clause(&[-1, -2]);
        let mut sink = MemorySink::new();
        sink.learned(4, &[0, 5]).unwrap(); // #5 not yet defined
        sink.learned(5, &[2, 3]).unwrap();
        sink.final_conflict(4).unwrap();
        let dag = build_trace(&cnf, &sink);
        let stop = dag.structural.expect("structural stop");
        assert_eq!(stop.node, 0);
        assert_eq!(stop.missing, 5);
        assert!(stop.forward);
        // Only the truncated node exists, with its prefix of one source.
        assert_eq!(dag.nodes.len(), 1);
        assert_eq!(dag.sources(0).len(), 1);
        assert!(matches!(
            stop.to_error(dag.nodes[0].id),
            CheckError::ForwardReference { id: 4, source: 5 }
        ));
    }

    #[test]
    fn unknown_source_is_classified_as_unknown() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        let mut sink = MemorySink::new();
        sink.learned(1, &[0, 42]).unwrap();
        sink.final_conflict(1).unwrap();
        let dag = build_trace(&cnf, &sink);
        let stop = dag.structural.expect("structural stop");
        assert!(!stop.forward);
        assert!(matches!(
            stop.to_error(1),
            CheckError::UnknownClause {
                id: 42,
                referenced_by: Some(1),
            }
        ));
    }

    #[test]
    fn originals_are_interned_once_and_charged() {
        let (cnf, sink) = chain(8);
        let (tables, start_id) =
            sequential_pass1(&sink, cnf.num_clauses(), None, &CancelFlag::default()).unwrap();
        let mut meter = MemoryMeter::unlimited();
        let dag = build(
            &cnf,
            &sink,
            &tables,
            start_id,
            &mut meter,
            &CancelFlag::default(),
            None,
        )
        .unwrap();
        // Chain antecedents 0..8 plus the final conflict (-n) = 9
        // distinct originals; the level-0 antecedent is learned.
        assert_eq!(dag.originals.len(), 9);
        let clause_cost: u64 = dag.originals.iter().map(|c| clause_bytes(c.len())).sum();
        let meta_cost =
            dag.nodes.len() as u64 * DAG_NODE_BYTES + dag.srcs.len() as u64 * DAG_SOURCE_BYTES;
        assert_eq!(meter.current(), clause_cost + meta_cost);
    }

    #[test]
    fn node_record_matches_its_accounted_size() {
        // DAG_NODE_BYTES charges the 24-byte node record plus its
        // completion slot and id-map entry.
        assert_eq!(std::mem::size_of::<DagNode>(), 24);
        assert_eq!(std::mem::size_of::<Option<Box<[Lit]>>>(), 16);
        assert_eq!(DAG_NODE_BYTES, 24 + 16 + 16);
        assert_eq!(DAG_SOURCE_BYTES, std::mem::size_of::<u32>() as u64);
    }

    #[test]
    fn mapped_pass1_sizes_tables_from_the_block_index() {
        // A long-chain trace: every learned clause resolves 40 sources,
        // so its binary encoding spends ~5× the 8 bytes per record that
        // the size-based estimate assumes.
        let num_original = 64usize;
        let learned = 500u64;
        let path =
            std::env::temp_dir().join(format!("rescheck-dag-sizing-{}.rt", std::process::id()));
        let mut writer = BinaryWriter::new(Vec::new()).unwrap();
        let mut prev = None;
        for k in 0..learned {
            let id = num_original as u64 + k;
            let mut sources: Vec<u64> = (0..40).collect();
            if let Some(p) = prev {
                sources[0] = p;
            }
            writer.learned(id, &sources).unwrap();
            prev = Some(id);
        }
        writer.final_conflict(prev.unwrap()).unwrap();
        std::fs::write(&path, writer.into_inner()).unwrap();
        let trace = FileTrace::open(&path).unwrap();
        let map = trace.trace_map(true).expect("binary file trace maps");
        let index = map.block_index().expect("clean trace indexes");
        assert_eq!(index.learned(), learned);
        let hint = learned_capacity_hint(Some(map));
        let (tables, _) =
            sequential_pass1(&trace, num_original, hint, &CancelFlag::default()).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(
            tables.use_counts.capacity() < 2 * learned as usize,
            "reserved {} slots for {learned} learned clauses",
            tables.use_counts.capacity()
        );
        assert!(tables.defined.capacity() < 2 * learned as usize);
    }

    #[test]
    fn pdag_rejects_malformed_traces_like_sequential() {
        let build = |mutate: &dyn Fn(&mut Vec<TraceEvent>)| {
            let (cnf, sink) = chain(600);
            let mut events = sink.into_events();
            mutate(&mut events);
            (cnf, MemorySink::from(events))
        };

        type Mutation = Box<dyn Fn(&mut Vec<TraceEvent>)>;
        let cases: Vec<Mutation> = vec![
            // Duplicate learned id mid-trace.
            Box::new(|events| {
                let dup = events[100].clone();
                events.insert(400, dup);
            }),
            // Forward reference.
            Box::new(|events| {
                if let TraceEvent::Learned { sources, .. } = &mut events[10] {
                    sources[0] = 1_000_000;
                }
            }),
            // Self-referencing clause.
            Box::new(|events| {
                if let TraceEvent::Learned { id, sources } = &mut events[10] {
                    sources[0] = *id;
                }
            }),
            // Empty source list.
            Box::new(|events| {
                if let TraceEvent::Learned { sources, .. } = &mut events[10] {
                    sources.clear();
                }
            }),
        ];
        let config = CheckConfig::default();
        for (i, mutate) in cases.iter().enumerate() {
            let (cnf, sink) = build(mutate.as_ref());
            let sequential = crate::breadth_first::run(&cnf, &sink, &config, &mut NullObserver)
                .unwrap_err()
                .to_string();
            let pdag = run(&cnf, &sink, &config, &mut NullObserver)
                .unwrap_err()
                .to_string();
            assert_eq!(pdag, sequential, "case {i}");
        }
    }

    #[test]
    fn parallel_dag_reports_worker_panics_as_internal_errors() {
        // Corrupt a built DAG so one node lists *itself* as a learned
        // source: its slot cannot be filled when the node resolves, so
        // the slot read panics inside the resolution closure. The walk
        // must catch the unwind and surface a structured internal error
        // (exit 5 at the CLI) instead of aborting.
        let mut dag = build_chain(64);
        let (victim, slot) = dag
            .nodes
            .iter()
            .enumerate()
            .find_map(|(i, n)| {
                (n.src_start..n.src_end)
                    .find(|&s| dag.srcs[s as usize] & ORIGINAL_TAG == 0)
                    .map(|s| (i as u32, s as usize))
            })
            .expect("chain nodes have learned sources");
        dag.srcs[slot] = victim;
        let Err(err) = resolve_in_order(
            &mut dag,
            MemoryMeter::unlimited(),
            &CancelFlag::default(),
            &mut NullObserver,
        ) else {
            panic!("a corrupted dag must fail");
        };
        assert!(matches!(err, CheckError::WorkerPanic { .. }), "{err:?}");
        assert_eq!(err.kind(), FailureKind::Internal);
    }
}
