//! What the benchmark reads about its own process: heap allocations
//! through a counting global allocator, and CPU time, peak resident set
//! and loopback traffic through `/proc`. No `libc`, no dependency.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with a call counter in front. The counter is a
/// statistic that publishes no other data, hence `Relaxed`.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are forwarded as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocation calls (alloc, alloc_zeroed, realloc) made by the whole
/// process so far, all threads.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Linux reports process times in clock ticks of 1/100 s (`USER_HZ`, a
/// kernel ABI constant on every supported architecture).
const MS_PER_TICK: f64 = 10.0;

/// utime + stime of a `/proc/<pid>/stat` line, in ticks. The command name
/// (field 2) may hold spaces, so fields are counted from the last `)`.
fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Process CPU time (user + system, all threads) in milliseconds.
pub fn cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_ticks(&s))
        .map_or(0.0, |t| t as f64 * MS_PER_TICK)
}

/// The `kB` value of one `/proc/<pid>/status` line.
fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kib(&s, "VmHWM:"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Transmitted bytes of one interface in `/proc/net/dev` text.
fn parse_dev_tx_bytes(dev: &str, iface: &str) -> Option<u64> {
    let line = dev
        .lines()
        .find_map(|l| l.trim_start().strip_prefix(iface)?.strip_prefix(':'))?;
    // After the colon: 8 receive columns, then transmit bytes.
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Bytes sent over the loopback interface since boot (every loopback
/// datagram is counted once here and once as received). 0 when the
/// sandbox hides `/proc/net/dev`.
pub fn lo_tx_bytes() -> u64 {
    std::fs::read_to_string("/proc/net/dev")
        .ok()
        .and_then(|s| parse_dev_tx_bytes(&s, "lo"))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_survive_spaces_and_parens_in_the_command_name() {
        let stat = "4242 (grid bench) x) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    37 5 0 0 20 0 3 0 1000 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(42));
        assert_eq!(parse_stat_ticks("no paren"), None);
    }

    #[test]
    fn status_and_net_dev_lines_parse() {
        let status = "Name:\tgridbench\nVmPeak:\t  900 kB\nVmHWM:\t  343040 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM:"), Some(343_040));
        assert_eq!(parse_status_kib(status, "VmSwap:"), None);
        let dev = "Inter-|   Receive  |  Transmit\n face |bytes packets|bytes\n    \
                   lo: 1000 10 0 0 0 0 0 0 2000 10 0 0 0 0 0 0\n  \
                   eth0: 5 1 0 0 0 0 0 0 7 1 0 0 0 0 0 0\n";
        assert_eq!(parse_dev_tx_bytes(dev, "lo"), Some(2000));
        assert_eq!(parse_dev_tx_bytes(dev, "eth0"), Some(7));
        assert_eq!(parse_dev_tx_bytes(dev, "wlan0"), None);
    }

    #[test]
    fn allocation_counter_moves_with_the_heap() {
        let before = allocs();
        let v: Vec<u64> = Vec::with_capacity(32);
        std::hint::black_box(&v);
        assert!(allocs() > before);
    }
}
