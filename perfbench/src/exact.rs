//! The exact-repeat guard. Counts that a fixed seed fully determines —
//! the request-stream digest, the simulated GPU time of a fixed request
//! set, simulator and search counts — are recorded per (workload, seed,
//! mode) under `out/exact/`. A later run of the same build that reads a
//! different value fails, so nondeterminism cannot hide behind noise.

use std::fs;
use std::path::PathBuf;

/// Where the benchmark writes its records and traces.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Compare `counts` with the record of an earlier run of this build (or
/// write the first record); disagreements are appended to `problems`.
pub fn guard(key: &str, counts: &[(&'static str, String)], problems: &mut Vec<String>) {
    let dir = out_dir().join("exact");
    let path = dir.join(format!("{key}.txt"));
    let mut body = format!("build {}\n", build_id());
    for (name, value) in counts {
        body.push_str(&format!("{name} {value}\n"));
    }
    match fs::read_to_string(&path) {
        Ok(prev) if prev.lines().next() == body.lines().next() => {
            for (was, now) in prev.lines().zip(body.lines()).skip(1) {
                if was != now {
                    problems.push(format!(
                        "exact-repeat count changed between runs: `{was}` then `{now}`"
                    ));
                }
            }
        }
        _ => {
            if let Err(e) = fs::create_dir_all(&dir).and_then(|_| fs::write(&path, &body)) {
                eprintln!(
                    "perfbench: cannot record exact counts at {}: {e}",
                    path.display()
                );
            }
        }
    }
}

/// Identifies the running binary, so a rebuilt program starts a fresh
/// record instead of being compared with the old one.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(fs::metadata)
        .map(|m| {
            let modified = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{}-{modified}", m.len())
        })
        .unwrap_or_else(|_| "unknown".into())
}
