//! Readers for the `/proc` files the benchmark measures with, and the
//! provenance fingerprint attached to every result.

use std::fs;
use std::path::Path;
use std::process::Command;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this runs on).
pub const TICKS_PER_SECOND: f64 = 100.0;

/// `cutime + cstime` — CPU ticks of every waited-for child — from the text
/// of `/proc/self/stat`. The command name in parentheses may contain
/// spaces, so fields are counted after its closing parenthesis.
#[must_use]
pub fn parse_children_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Field 3 (state) is fields[0]; cutime and cstime are fields 16, 17.
    let cutime: u64 = fields.get(13)?.parse().ok()?;
    let cstime: u64 = fields.get(14)?.parse().ok()?;
    Some(cutime + cstime)
}

/// CPU ticks consumed so far by this process's waited-for children.
///
/// # Errors
/// `/proc/self/stat` is unreadable or malformed.
pub fn children_ticks() -> Result<u64, String> {
    let stat = fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    parse_children_ticks(&stat).ok_or_else(|| "malformed /proc/self/stat".to_string())
}

/// A `kB` field such as `VmHWM` from the text of `/proc/<pid>/status`,
/// in bytes.
#[must_use]
pub fn parse_status_bytes(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        let kb: u64 = value.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kb * 1024)
    })
}

/// A `kB` field of `/proc/<pid>/status` in bytes; `None` once the
/// process is gone or has released its memory.
#[must_use]
pub fn status_bytes(pid: &str, key: &str) -> Option<u64> {
    parse_status_bytes(
        &fs::read_to_string(format!("/proc/{pid}/status")).ok()?,
        key,
    )
}

/// `(wchar, syscw)` — bytes written and write calls — from the text of
/// `/proc/self/io`. The kernel folds reaped children into these counts.
#[must_use]
pub fn parse_io(io: &str) -> Option<(u64, u64)> {
    let field = |key: &str| -> Option<u64> {
        io.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(':')?.trim().parse().ok())
    };
    Some((field("wchar")?, field("syscw")?))
}

/// Bytes written and write calls of this process and its reaped children.
///
/// # Errors
/// `/proc/self/io` is unreadable or malformed.
pub fn io_counts() -> Result<(u64, u64), String> {
    let io = fs::read_to_string("/proc/self/io")
        .map_err(|e| format!("cannot read /proc/self/io: {e}"))?;
    parse_io(&io).ok_or_else(|| "malformed /proc/self/io".to_string())
}

/// The filesystem type holding `path`, from the text of
/// `/proc/self/mountinfo`: the longest mount point containing it.
#[must_use]
pub fn parse_fs_type(mountinfo: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fs_type)) = (
            left.split_whitespace().nth(4),
            right.split_whitespace().next(),
        ) else {
            continue;
        };
        let mount = mount.replace("\\040", " ");
        let depth = Path::new(&mount).components().count();
        if path.starts_with(&mount) && best.as_ref().is_none_or(|(d, _)| depth >= *d) {
            best = Some((depth, fs_type.to_string()));
        }
    }
    best.map(|(_, t)| t)
}

/// Where the numbers came from. Compared against the baseline machine in
/// `baseline.rs`; a mismatch is reported, never gated.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    pub git_rev: String,
    pub rustc: String,
    pub cpu_model: String,
    pub nproc: usize,
    pub kernel: String,
    pub fs_type: String,
}

impl Fingerprint {
    /// Gathers the fingerprint of this checkout and machine; `work_dir`
    /// is the directory the generated inputs live in.
    #[must_use]
    pub fn gather(root: &Path, work_dir: &Path) -> Self {
        let unknown = || "unknown".to_string();
        let rustc = Command::new("rustc")
            .arg("-V")
            .current_dir(root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(unknown, |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            });
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines().find_map(|l| {
                    Some(
                        l.strip_prefix("model name")?
                            .split_once(':')?
                            .1
                            .trim()
                            .to_string(),
                    )
                })
            })
            .unwrap_or_else(unknown);
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| unknown(), |k| k.trim().to_string());
        let fs_type = fs::read_to_string("/proc/self/mountinfo")
            .ok()
            .zip(work_dir.canonicalize().ok())
            .and_then(|(info, path)| parse_fs_type(&info, &path))
            .unwrap_or_else(unknown);
        Self {
            git_rev: git_rev(root).unwrap_or_else(unknown),
            rustc,
            cpu_model,
            nproc: nproc(),
            kernel,
            fs_type,
        }
    }

    /// `(field, value)` pairs, in a fixed order.
    #[must_use]
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("git_rev", self.git_rev.clone()),
            ("rustc", self.rustc.clone()),
            ("cpu_model", self.cpu_model.clone()),
            ("nproc", self.nproc.to_string()),
            ("kernel", self.kernel.clone()),
            ("fs_type", self.fs_type.clone()),
        ]
    }
}

/// Cores this process may use.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit checked out at `root`, read from `.git` directly so that
/// nothing outside the checkout is consulted.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| Some(l.strip_suffix(reference)?.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_ticks_skip_a_command_name_with_spaces() {
        let stat = "4242 (my (odd) bench) S 1 4242 4242 0 -1 4194304 100 5 0 0 \
                    11 7 230 45 20 0 3 0 12345 1000000 200 18446744073709551615";
        assert_eq!(parse_children_ticks(stat), Some(275));
        assert_eq!(parse_children_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_are_read_in_bytes() {
        let status = "Name:\tchurnbal-lab\nVmPeak:\t  300000 kB\nVmHWM:\t  271360 kB\n\
                      VmRSS:\t    3868 kB\n";
        assert_eq!(parse_status_bytes(status, "VmHWM"), Some(271_360 * 1024));
        assert_eq!(parse_status_bytes(status, "VmRSS"), Some(3868 * 1024));
        assert_eq!(parse_status_bytes(status, "VmSwap"), None);
        assert_eq!(parse_status_bytes("VmHWM:\tlots kB\n", "VmHWM"), None);
    }

    #[test]
    fn io_counts_parse() {
        let io = "rchar: 3980\nwchar: 1000099\nsyscr: 9\nsyscw: 1003\nread_bytes: 0\n";
        assert_eq!(parse_io(io), Some((1_000_099, 1003)));
        assert_eq!(parse_io("rchar: 1\n"), None);
    }

    #[test]
    fn fs_type_takes_the_deepest_mount() {
        let info = "28 1 254:0 / / rw,relatime - ext4 /dev/vda rw\n\
                    40 28 0:50 / /repo/target rw - tmpfs tmpfs rw\n\
                    41 28 0:51 / /repo/tar\\040get rw - xfs /dev/vdc rw\n";
        let fs = |p: &str| parse_fs_type(info, Path::new(p));
        assert_eq!(fs("/repo/target/benchmark").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/repo/targetx").as_deref(), Some("ext4"));
        assert_eq!(fs("/repo/tar get/x").as_deref(), Some("xfs"));
    }
}
