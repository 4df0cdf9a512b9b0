//! The run environment recorded with every result, so a figure from a
//! host with other cores or another GEMM kernel is visibly not comparable.

use adaptraj_obs::json::Obj;
use std::path::Path;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in `root`, read from `.git` without running
/// git; `"unknown"` outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn to_json(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    Obj::new()
        .str("workload", workload)
        .u64("seed", seed)
        .u64("seconds", seconds)
        .bool("trace", trace)
        .u64("nproc", nproc() as u64)
        .str("kernel", adaptraj_tensor::kernels::active_kernel().name())
        .str("commit", &git_commit(Path::new(".")))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_is_read_from_a_ref_or_packed_refs() {
        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(".test-git-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        assert_eq!(git_commit(&dir.join("missing")), "unknown");
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(git.join("packed-refs"), "# pack\nabc123 refs/heads/main\n").unwrap();
        assert_eq!(git_commit(&dir), "abc123");
        std::fs::write(git.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_commit(&dir), "def456");
        std::fs::write(git.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(git_commit(&dir), "0123abcd");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
