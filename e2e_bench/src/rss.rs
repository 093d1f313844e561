//! Peak resident memory from `/proc/self`.

use std::fs;

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn peak_mib() -> Option<f64> {
    status_mib("VmHWM:")
}

/// Resets VmHWM to the current resident set by writing `5` to
/// `/proc/self/clear_refs`. Returns false when the kernel refuses, in
/// which case a later [`peak_mib`] is the peak of the whole process
/// lifetime and must not be reported as a layer's peak.
pub fn reset_peak() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Runs `f` between a peak reset and a peak read. The peak is `None`
/// when the reset was refused.
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, Option<f64>) {
    let reset = reset_peak();
    let out = f();
    (out, if reset { peak_mib() } else { None })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clearing_refs_drops_the_peak_to_the_current_resident_set() {
        // A 64 MiB buffer is mapped on its own, so freeing it returns
        // the pages and leaves VmHWM well above VmRSS.
        let mut buf = vec![0u8; 64 << 20];
        for page in buf.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&buf);
        drop(buf);
        let before = peak_mib().expect("VmHWM is readable");
        let current = status_mib("VmRSS:").expect("VmRSS is readable");
        assert!(before - current >= 32.0);
        assert!(reset_peak(), "the kernel refused the VmHWM reset");
        let after = peak_mib().expect("VmHWM is readable");
        assert!(after < before - 32.0, "VmHWM {before} -> {after}");

        let (_, peak) = measure_peak(|| {
            let mut buf = vec![0u8; 16 << 20];
            for page in buf.chunks_mut(4096) {
                page[0] = 1;
            }
            std::hint::black_box(&buf);
        });
        let peak = peak.expect("reset succeeded above");
        assert!(peak >= after + 12.0, "peak {peak} after reset {after}");
    }
}
