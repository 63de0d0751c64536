//! Re-check the `gates` arrays of written `BENCH_*.json` files.
//!
//! ```sh
//! cargo run --release -p nassim-bench --bin bench_check -- BENCH_ann.json
//! cargo run --release -p nassim-bench --bin bench_check -- --require-enforced BENCH_parallel.json
//! ```
//!
//! Exits non-zero if a file is unreadable or has no parsable `gates`
//! array, if a recorded gate outcome disagrees with its comparison, if
//! an enforced gate failed, or — with `--require-enforced` — if any gate
//! was only reported (the run was smoke-sized or on too few cores).

use nassim_bench::report::check_document;
use std::process::ExitCode;

fn main() -> ExitCode {
    let (flags, files): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    let require_enforced = flags.iter().any(|f| f == "--require-enforced");
    if let Some(bad) = flags.iter().find(|f| *f != "--require-enforced") {
        eprintln!("bench_check: unknown flag {bad}");
        return ExitCode::from(2);
    }
    if files.is_empty() {
        eprintln!("usage: bench_check [--require-enforced] BENCH_<name>.json...");
        return ExitCode::from(2);
    }
    let mut ok = true;
    for file in &files {
        let problems = match std::fs::read_to_string(file)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str::<serde::Value>(&text).map_err(|e| e.to_string()))
        {
            Ok(doc) => check_document(&doc, require_enforced),
            Err(e) => vec![e],
        };
        if problems.is_empty() {
            println!("{file}: gates OK");
        } else {
            ok = false;
            for p in problems {
                eprintln!("{file}: {p}");
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
