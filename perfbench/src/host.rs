//! The host fingerprint written into every result record: fsync cost and
//! core count dominate these numbers, so results from unlike hosts must
//! not be compared.

use std::path::Path;

pub fn fingerprint(wal_dir: &Path) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"cores\":{cores},\"cpu\":\"{}\",\"kernel\":\"{}\",\"wal_fs\":\"{}\"}}",
        escape(&cpu),
        escape(&kernel),
        escape(&filesystem_of(wal_dir))
    )
}

/// The filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(sep)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(sep + 1) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().map_or(true, |(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

pub fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}
