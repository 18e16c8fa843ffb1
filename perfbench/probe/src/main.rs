//! `perfbench-probe` — times single calls into rescheck's public library
//! functions and prints one JSON object per invocation on stdout.
//!
//! ```text
//! perfbench-probe solve <file.cnf> <scratch.rt>   # parse, search, encode
//! perfbench-probe read  <file.rt>                 # map + index, decode
//! perfbench-probe lrat  <file.cnf> <file.rt>      # export, ingest
//! perfbench-probe run   <program> [args…]         # wall time, CPU time, peak RSS
//! ```
//!
//! Every timing is one wall-clock measurement of one call; the caller
//! repeats invocations and takes medians.

use rescheck_cnf::dimacs;
use rescheck_interop::{export_lrat, ingest_bytes, lrat, LratStep, ProofFormat};
use rescheck_solver::{Solver, SolverConfig};
use rescheck_trace::{
    read_all, BinaryWriter, MemorySink, NullSink, SliceDecoder, TraceFormat, TraceMap, TraceSink,
};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

type Fields = Vec<(&'static str, f64)>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("run") {
        return run_measured(&args[1..]);
    }
    let result = match args
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["solve", cnf, scratch] => solve(cnf, scratch),
        ["read", trace] => read(trace),
        ["lrat", cnf, trace] => lrat_round_trip(cnf, trace),
        _ => Err(
            "usage: perfbench-probe solve <cnf> <scratch.rt> | read <rt> | lrat <cnf> <rt>".into(),
        ),
    };
    match result {
        Ok(fields) => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            println!("{{{}}}", body.join(", "));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            ExitCode::from(1)
        }
    }
}

extern "C" {
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
}

/// Runs a program with inherited stdio and appends `wall_s`, `cpu_s`
/// (user plus system time of the child), `code` and `maxrss_kb` as one
/// JSON line to stderr. Launching from this small
/// process, rather than from the benchmark's interpreter, keeps the
/// parent's resident set out of the child's `ru_maxrss`, which Linux
/// carries across `exec`.
fn run_measured(argv: &[String]) -> ExitCode {
    let Some((program, args)) = argv.split_first() else {
        eprintln!("usage: perfbench-probe run <program> [args…]");
        return ExitCode::from(2);
    };
    let start = Instant::now();
    let status = match std::process::Command::new(program).args(args).status() {
        Ok(status) => status,
        Err(e) => {
            eprintln!("perfbench-probe: cannot run {program}: {e}");
            return ExitCode::from(2);
        }
    };
    let wall_s = seconds_since(start);
    let mut usage = [0i64; 18];
    // RUSAGE_CHILDREN (-1): the one waited-for child. `ru_utime` and
    // `ru_stime` are `timeval`s (seconds, microseconds); `ru_maxrss`
    // follows them.
    // SAFETY: `usage` is at least as large as `struct rusage` on 64-bit Linux.
    let (cpu_s, maxrss_kb) = if unsafe { getrusage(-1, &mut usage) } == 0 {
        let seconds = |at: usize| usage[at] as f64 + usage[at + 1] as f64 * 1e-6;
        (seconds(0) + seconds(2), usage[4])
    } else {
        (-1.0, -1)
    };
    let code = status.code().unwrap_or(-1);
    eprintln!(
        "{{\"wall_s\": {wall_s}, \"cpu_s\": {cpu_s}, \"code\": {code}, \"maxrss_kb\": {maxrss_kb}}}"
    );
    ExitCode::SUCCESS
}

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// `dimacs::read_file`, then `Solver::solve_traced` into a `NullSink`
/// and into a `MemorySink`, then the `BinaryWriter` encode of the
/// recorded events to `scratch`.
fn solve(cnf_path: &str, scratch: &str) -> Result<Fields, Box<dyn std::error::Error>> {
    let start = Instant::now();
    let cnf = dimacs::read_file(cnf_path)?;
    let parse_s = seconds_since(start);

    let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
    let start = Instant::now();
    let untraced = solver.solve_traced(&mut NullSink::new())?;
    let search_s = seconds_since(start);
    let conflicts = solver.stats().conflicts;
    let learned = solver.stats().learned_clauses;

    let mut solver = Solver::from_cnf(&cnf, SolverConfig::default());
    let mut sink = MemorySink::new();
    let start = Instant::now();
    let traced = solver.solve_traced(&mut sink)?;
    let search_traced_s = seconds_since(start);
    if untraced.is_unsat() != traced.is_unsat() {
        return Err("traced and untraced solves disagree".into());
    }

    let start = Instant::now();
    let file = std::io::BufWriter::new(std::fs::File::create(scratch)?);
    let mut writer = BinaryWriter::new(file)?;
    for event in sink.events() {
        writer.event(event)?;
    }
    writer.flush()?;
    let encode_s = seconds_since(start);
    Ok(vec![
        ("unsat", f64::from(u8::from(traced.is_unsat()))),
        ("parse_s", parse_s),
        ("search_s", search_s),
        ("search_traced_s", search_traced_s),
        ("encode_s", encode_s),
        ("conflicts", conflicts as f64),
        ("learned", learned as f64),
        ("events", writer.events_written() as f64),
        ("bytes", writer.bytes_written() as f64),
    ])
}

/// `TraceMap::open` plus its block index, then a full `SliceDecoder`
/// pass over the mapped bytes.
fn read(trace_path: &str) -> Result<Fields, Box<dyn std::error::Error>> {
    let start = Instant::now();
    let map = TraceMap::open(Path::new(trace_path))?;
    let indexed = map.block_index().map_or(0, |index| index.events());
    let open_s = seconds_since(start);

    let start = Instant::now();
    let mut decoder = SliceDecoder::new(map.bytes())?;
    while decoder.next_event()?.is_some() {}
    let decode_s = seconds_since(start);
    let events = decoder.events_decoded();
    if indexed != events {
        return Err(format!("block index counts {indexed} events, decoder {events}").into());
    }
    Ok(vec![
        ("open_s", open_s),
        ("decode_s", decode_s),
        ("events", events as f64),
        ("bytes", map.bytes().len() as f64),
    ])
}

/// `export_lrat` of a binary trace, then `ingest_bytes` of the text
/// LRAT rendering back against the same formula.
fn lrat_round_trip(cnf_path: &str, trace_path: &str) -> Result<Fields, Box<dyn std::error::Error>> {
    let cnf = dimacs::read_file(cnf_path)?;
    let bytes = std::fs::read(trace_path)?;
    let events = read_all(&bytes[..], TraceFormat::Binary)?;

    let start = Instant::now();
    let report = export_lrat(&cnf, &events)?;
    let export_s = seconds_since(start);
    let hints: usize = report
        .steps
        .iter()
        .map(|step| match step {
            LratStep::Add { hints, .. } => hints.len(),
            LratStep::Delete { .. } => 0,
        })
        .sum();
    let mut proof = Vec::new();
    lrat::write_text(&mut proof, &report.steps)?;

    let start = Instant::now();
    let ingested = ingest_bytes(&cnf, &proof, ProofFormat::Lrat)?;
    let ingest_s = seconds_since(start);
    if !ingested.resolution_checkable() {
        return Err("re-ingested LRAT proof is not resolution-checkable".into());
    }
    Ok(vec![
        ("export_s", export_s),
        ("ingest_s", ingest_s),
        ("hints", hints as f64),
        ("proof_bytes", proof.len() as f64),
        ("ingested_events", ingested.events.len() as f64),
    ])
}
