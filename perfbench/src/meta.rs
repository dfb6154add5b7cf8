//! Per-sample metadata: numbers compare only on the same host and
//! revision, so every run records both.

use std::path::{Path, PathBuf};

use crate::Opts;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The CPU model string, or `unknown`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every `.rs` and `Cargo.toml` file under `dir`, recursively.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && !name.to_string_lossy().starts_with('.') {
                sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
}

/// FNV-1a over the built sources (paths and contents, sorted): the
/// revision identity of a checkout that is not a git repository.
fn source_hash() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench"] {
        sources(&root.join(dir), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for file in &files {
        if let (Ok(rel), Ok(contents)) = (file.strip_prefix(&root), std::fs::read(file)) {
            eat(rel.to_string_lossy().as_bytes());
            eat(&contents);
        }
    }
    format!("src-fnv64-{hash:016x} ({} files)", files.len())
}

/// The metadata fields every run records.
pub fn fields(opts: &Opts) -> Vec<(&'static str, String)> {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", opts.workload.clone()),
        ("seed", opts.seed.to_string()),
        ("seconds", format!("{}", opts.seconds.as_secs_f64())),
        ("trace", u8::from(opts.trace).to_string()),
        ("host_cpus", cpus.to_string()),
        ("cpu_model", cpu_model()),
        ("rev", source_hash()),
    ]
}
