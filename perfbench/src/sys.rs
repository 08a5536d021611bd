//! Process resource readings and the run environment.

use std::path::Path;
use std::time::Duration;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// starting with `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut r = Rusage {
        utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        maxrss_kib: 0,
        _rest: [0; 13],
    };
    // SAFETY: `r` is a live, writable `struct rusage` with the 64-bit
    // Linux layout declared above, and RUSAGE_SELF is a valid `who`;
    // getrusage only writes within the struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    r
}

/// User + system CPU time of the whole process (all threads, including
/// finished ones) so far.
pub fn cpu_time() -> Duration {
    let r = rusage();
    let us = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    Duration::from_micros(us(&r.utime) + us(&r.stime))
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    rusage().maxrss_kib as f64 / 1024.0
}

/// Worker threads the program's parallel map uses
/// (`available_parallelism`, which it never exceeds).
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Online CPUs as `nproc` reports them (from sysfs; falls back to the
/// thread count).
pub fn nproc() -> usize {
    std::fs::read_to_string("/sys/devices/system/cpu/online")
        .ok()
        .and_then(|s| {
            s.trim()
                .split(',')
                .map(|r| match r.split_once('-') {
                    Some((a, b)) => Some(b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1),
                    None => r.parse::<usize>().ok().map(|_| 1),
                })
                .sum::<Option<usize>>()
        })
        .unwrap_or_else(threads)
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The git revision of the working directory's checkout, read from
/// `.git` without spawning git; `none` outside a git checkout.
pub fn git_revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a digest of every file under `crates/` (paths and contents, in
/// sorted order): identifies the measured source even where the
/// checkout carries no git metadata. `none` when `crates/` is absent.
pub fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    if files.is_empty() {
        return "none".into();
    }
    files.sort();
    let mut h = crate::report::Fnv::new();
    for f in &files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}
