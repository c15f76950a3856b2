//! Memory & allocation observatory: a counting [`GlobalAlloc`] wrapper
//! with phase-attributed scopes.
//!
//! The paper's whole trade-off lives on buffer-constrained sensor nodes
//! — buffer slots are the scarce resource that buys temporal privacy —
//! yet a reproduction that cannot see its own allocator has no business
//! claiming a "zero-alloc data plane" (ROADMAP item 2). This module
//! makes allocation observable without perturbing the simulation:
//!
//! * [`CountingAlloc`] wraps [`System`] and, when the global gate is
//!   enabled, counts allocs/deallocs/reallocs, cumulative allocated
//!   bytes, live bytes, and peak live bytes in relaxed atomics. With the
//!   gate off (the default) every hook is one relaxed load plus the
//!   delegated call — effectively free.
//! * Each counting thread additionally attributes its allocations to an
//!   *attribution slot*: the kernel [`Phase`]s plus an `unscoped`
//!   residual. The slot is a plain thread-local [`Cell`], switched by
//!   [`MemScopeTimer`] while a driver run is profiled.
//! * [`MemBreakdown`] is the serializable per-slot ledger, with a text
//!   table and Chrome `"ph":"C"` counter events that merge into the
//!   profiler's phase timeline.
//!
//! The allocator is a *library*: installing it is each binary's choice
//! (`#[global_allocator] static A: CountingAlloc = CountingAlloc;`).
//! When no binary installs it, every counter stays zero and all APIs
//! degrade gracefully. Counting is pure observation — it never touches
//! simulation state, RNG, or scheduling — so outcomes and digests are
//! byte-identical with the gate on or off.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use serde::{Deserialize, Serialize};
use tempriv_sim::profile::{Phase, PhaseTimer, PHASE_COUNT};

use crate::profiler::PhaseBreakdown;
use crate::span::{json_escape, PHASE_PID};

/// Number of attribution slots: the kernel phases plus the
/// `unscoped` residual.
pub const SLOT_COUNT: usize = PHASE_COUNT + 1;

const SLOT_UNSCOPED: usize = PHASE_COUNT;

/// Stable display name of an attribution slot (phase names for
/// `0..PHASE_COUNT`, then `unscoped`).
#[must_use]
pub fn slot_name(slot: usize) -> &'static str {
    if slot < PHASE_COUNT {
        Phase::ALL[slot].name()
    } else {
        "unscoped"
    }
}

// Global counters. Relaxed is enough: these are statistics, not
// synchronization, and every reader tolerates tearing between fields.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
// Signed: enabling mid-program means frees of pre-gate allocations can
// drive the balance below zero; snapshots clamp at zero.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE: AtomicI64 = AtomicI64::new(0);

struct MemTls {
    slot: Cell<usize>,
    allocs: [Cell<u64>; SLOT_COUNT],
    bytes: [Cell<u64>; SLOT_COUNT],
}

impl MemTls {
    const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: Cell<u64> = Cell::new(0);
        MemTls {
            slot: Cell::new(SLOT_UNSCOPED),
            allocs: [ZERO; SLOT_COUNT],
            bytes: [ZERO; SLOT_COUNT],
        }
    }
}

thread_local! {
    // Const-initialized so first access never allocates (the allocator
    // hook itself touches this), and `try_with` below tolerates access
    // during thread teardown after the TLS destructor ran.
    static MEM_TLS: MemTls = const { MemTls::new() };
}

#[inline]
fn record_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
    let _ = MEM_TLS.try_with(|t| {
        let slot = t.slot.get();
        t.allocs[slot].set(t.allocs[slot].get() + 1);
        t.bytes[slot].set(t.bytes[slot].get() + size as u64);
    });
}

#[inline]
fn record_dealloc(size: usize) {
    DEALLOCS.fetch_add(1, Ordering::Relaxed);
    LIVE_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
}

/// A counting allocator delegating to [`System`].
///
/// Install it per binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: tempriv_telemetry::CountingAlloc =
///     tempriv_telemetry::CountingAlloc;
/// ```
///
/// Counting is off until [`set_enabled`]`(true)`; until then each hook
/// costs one relaxed load on top of the system allocator call.
pub struct CountingAlloc;

// SAFETY: every method delegates the actual (de)allocation to `System`
// unchanged; the bookkeeping never dereferences the returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() && ENABLED.load(Ordering::Relaxed) {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() && ENABLED.load(Ordering::Relaxed) {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if ENABLED.load(Ordering::Relaxed) {
            record_dealloc(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() && ENABLED.load(Ordering::Relaxed) {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
            // Account a realloc as free(old) + alloc(new) so live bytes
            // stay balanced and growth lands in the current slot.
            record_dealloc(layout.size());
            record_alloc(new_size);
            // record_alloc counted it as a fresh allocation; undo the
            // event count so allocs reflects distinct alloc calls.
            ALLOCS.fetch_sub(1, Ordering::Relaxed);
            DEALLOCS.fetch_sub(1, Ordering::Relaxed);
        }
        new_ptr
    }
}

/// Turns allocation counting on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether allocation counting is currently enabled.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Probes whether a [`CountingAlloc`] is installed as the global
/// allocator: enables the gate, performs a heap allocation, and checks
/// that the counter moved. Restores the previous gate state.
#[must_use]
pub fn installed() -> bool {
    let was = enabled();
    set_enabled(true);
    let before = ALLOCS.load(Ordering::Relaxed);
    let probe = vec![0u8; 64];
    std::hint::black_box(&probe);
    let moved = ALLOCS.load(Ordering::Relaxed) > before;
    drop(probe);
    set_enabled(was);
    moved
}

/// A point-in-time copy of the process-wide allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemSnapshot {
    /// Allocation calls observed while counting was enabled.
    pub allocs: u64,
    /// Deallocation calls observed while counting was enabled.
    pub deallocs: u64,
    /// Reallocation calls observed while counting was enabled.
    pub reallocs: u64,
    /// Cumulative bytes requested by allocations (and realloc growth).
    pub alloc_bytes: u64,
    /// Currently live bytes (allocated minus freed, clamped at zero).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since counting began.
    pub peak_live_bytes: u64,
}

/// Rebases the peak-live high-water mark to the current live level, so
/// per-phase peaks can be measured without the largest earlier phase
/// masking everything after it. Racy against concurrent allocation in
/// the same way the counters themselves are: fine for benchmarks, which
/// measure on one thread.
pub fn reset_peak() {
    PEAK_LIVE.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Snapshots the process-wide counters.
#[must_use]
pub fn snapshot() -> MemSnapshot {
    MemSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        deallocs: DEALLOCS.load(Ordering::Relaxed),
        reallocs: REALLOCS.load(Ordering::Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed).max(0) as u64,
        peak_live_bytes: PEAK_LIVE.load(Ordering::Relaxed).max(0) as u64,
    }
}

/// This thread's allocation totals (sum over all attribution slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThreadMemSnapshot {
    /// Allocation calls made by this thread while counting was enabled.
    pub allocs: u64,
    /// Bytes requested by this thread while counting was enabled.
    pub bytes: u64,
}

impl ThreadMemSnapshot {
    /// Counters accumulated since `earlier` (saturating).
    #[must_use]
    pub fn since(self, earlier: ThreadMemSnapshot) -> ThreadMemSnapshot {
        ThreadMemSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Snapshots the calling thread's allocation totals.
#[must_use]
pub fn thread_snapshot() -> ThreadMemSnapshot {
    MEM_TLS
        .try_with(|t| ThreadMemSnapshot {
            allocs: t.allocs.iter().map(Cell::get).sum(),
            bytes: t.bytes.iter().map(Cell::get).sum(),
        })
        .unwrap_or_default()
}

/// Peak resident set size of this process in bytes, from
/// `/proc/self/status` `VmHWM`. `None` where procfs is unavailable
/// (non-Linux) or the line is missing.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Per-slot allocation counters for one [`MemBreakdown`] row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotMem {
    /// Slot display name (a phase name, or `unscoped`).
    pub slot: String,
    /// Allocation calls attributed to this slot.
    pub allocs: u64,
    /// Bytes attributed to this slot.
    pub bytes: u64,
}

/// A serializable ledger of allocations attributed per slot, the memory
/// twin of [`PhaseBreakdown`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemBreakdown {
    /// Per-slot rows, in slot-index order (all [`SLOT_COUNT`] slots).
    pub slots: Vec<SlotMem>,
    /// Total allocation calls across slots.
    pub total_allocs: u64,
    /// Total bytes across slots.
    pub total_bytes: u64,
}

impl MemBreakdown {
    /// An all-zero breakdown with every slot present.
    #[must_use]
    pub fn empty() -> MemBreakdown {
        MemBreakdown {
            slots: (0..SLOT_COUNT)
                .map(|i| SlotMem {
                    slot: slot_name(i).to_string(),
                    allocs: 0,
                    bytes: 0,
                })
                .collect(),
            total_allocs: 0,
            total_bytes: 0,
        }
    }

    /// Whether any slot recorded an allocation.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total_allocs == 0
    }

    /// Bytes attributed to the slot named `slot`, 0 if absent.
    #[must_use]
    pub fn bytes_for(&self, slot: &str) -> u64 {
        self.slots
            .iter()
            .find(|s| s.slot == slot)
            .map_or(0, |s| s.bytes)
    }

    /// Folds `other` into `self`, matching rows by slot name and
    /// appending unknown slots (so ledgers written with other slot sets,
    /// such as the retired `serve`/`job`/`scenario` rows, still merge).
    pub fn merge(&mut self, other: &MemBreakdown) {
        for row in &other.slots {
            if let Some(mine) = self.slots.iter_mut().find(|s| s.slot == row.slot) {
                mine.allocs += row.allocs;
                mine.bytes += row.bytes;
            } else {
                self.slots.push(row.clone());
            }
        }
        self.total_allocs += other.total_allocs;
        self.total_bytes += other.total_bytes;
    }

    /// Renders the ledger as an aligned text table (zero rows skipped).
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>14} {:>7}",
            "slot", "allocs", "bytes", "share"
        );
        for row in &self.slots {
            if row.allocs == 0 && row.bytes == 0 {
                continue;
            }
            let share = if self.total_bytes == 0 {
                0.0
            } else {
                100.0 * row.bytes as f64 / self.total_bytes as f64
            };
            let _ = writeln!(
                out,
                "{:<14} {:>12} {:>14} {:>6.1}%",
                row.slot, row.allocs, row.bytes, share
            );
        }
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>14} {:>6.1}%",
            "total", self.total_allocs, self.total_bytes, 100.0
        );
        out
    }

    /// Renders the ledger as Chrome `"ph":"C"` counter samples aligned
    /// with [`PhaseBreakdown::chrome_phase_events`]: one `alloc_bytes`
    /// sample per non-empty phase band, at the band's start cursor, on
    /// the engine-phases process ([`PHASE_PID`]).
    #[must_use]
    pub fn chrome_counter_events(
        &self,
        start_us: u64,
        tid: u64,
        timing: &PhaseBreakdown,
    ) -> Vec<String> {
        let mut parts = Vec::new();
        let mut cursor = start_us as f64;
        for stat in &timing.phases {
            let dur = stat.secs * 1e6;
            if dur <= 0.0 {
                continue;
            }
            let bytes = self.bytes_for(&stat.phase);
            parts.push(format!(
                "{{\"name\":\"alloc_bytes\",\"cat\":\"mem\",\"ph\":\"C\",\"ts\":{:.3},\
                 \"pid\":{PHASE_PID},\"tid\":{tid},\"args\":{{\"{}\":{}}}}}",
                cursor,
                json_escape(&stat.phase),
                bytes
            ));
            cursor += dur;
        }
        parts
    }
}

/// A [`PhaseTimer`] that redirects this thread's allocation attribution
/// to the active kernel phase, producing a per-phase [`MemBreakdown`].
///
/// Like the wall-clock [`crate::PhaseProfiler`] it is a pure observer:
/// switching slots writes one thread-local cell and cannot perturb the
/// simulation. Construction snapshots the thread's per-slot counters so
/// [`finish`](MemScopeTimer::finish) reports only this run's deltas.
#[derive(Debug)]
pub struct MemScopeTimer {
    base_allocs: [u64; SLOT_COUNT],
    base_bytes: [u64; SLOT_COUNT],
    outer_slot: usize,
    current: Phase,
}

impl MemScopeTimer {
    /// Starts attribution at [`Phase::EngineLoop`], baselining the
    /// thread's counters.
    #[must_use]
    pub fn new() -> MemScopeTimer {
        let mut base_allocs = [0u64; SLOT_COUNT];
        let mut base_bytes = [0u64; SLOT_COUNT];
        let outer_slot = MEM_TLS
            .try_with(|t| {
                for i in 0..SLOT_COUNT {
                    base_allocs[i] = t.allocs[i].get();
                    base_bytes[i] = t.bytes[i].get();
                }
                let prev = t.slot.get();
                t.slot.set(Phase::EngineLoop.index());
                prev
            })
            .unwrap_or(SLOT_UNSCOPED);
        MemScopeTimer {
            base_allocs,
            base_bytes,
            outer_slot,
            current: Phase::EngineLoop,
        }
    }

    /// Stops attribution (restoring the outer slot) and returns the
    /// per-slot allocation deltas since construction.
    #[must_use]
    pub fn finish(self) -> MemBreakdown {
        // Read the deltas into stack arrays and restore the outer slot
        // *before* allocating the breakdown, so the breakdown's own
        // allocations are not counted against this run.
        let mut d_allocs = [0u64; SLOT_COUNT];
        let mut d_bytes = [0u64; SLOT_COUNT];
        let _ = MEM_TLS.try_with(|t| {
            for i in 0..SLOT_COUNT {
                d_allocs[i] = t.allocs[i].get().saturating_sub(self.base_allocs[i]);
                d_bytes[i] = t.bytes[i].get().saturating_sub(self.base_bytes[i]);
            }
            t.slot.set(self.outer_slot);
        });
        let mut breakdown = MemBreakdown::empty();
        for (i, row) in breakdown.slots.iter_mut().enumerate() {
            row.allocs = d_allocs[i];
            row.bytes = d_bytes[i];
        }
        breakdown.total_allocs = d_allocs.iter().sum();
        breakdown.total_bytes = d_bytes.iter().sum();
        breakdown
    }
}

impl Default for MemScopeTimer {
    fn default() -> Self {
        MemScopeTimer::new()
    }
}

impl PhaseTimer for MemScopeTimer {
    #[inline]
    fn switch(&mut self, phase: Phase) -> Phase {
        let prev = self.current;
        self.current = phase;
        let _ = MEM_TLS.try_with(|t| t.slot.set(phase.index()));
        prev
    }
}

#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: CountingAlloc = CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    // The gate and the global counters are process-wide; tests that
    // need exact numbers read the *thread-local* slot counters, which
    // other test threads cannot touch. Every test that sets the gate
    // holds `GATE`, so none switches counting off under another.

    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock_gate() -> std::sync::MutexGuard<'static, ()> {
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn with_counting<T>(f: impl FnOnce() -> T) -> T {
        let _gate = lock_gate();
        let was = enabled();
        set_enabled(true);
        let out = f();
        set_enabled(was);
        out
    }

    #[test]
    fn counting_allocator_is_installed_in_this_binary() {
        let _gate = lock_gate();
        assert!(installed());
    }

    #[test]
    fn thread_slots_attribute_to_the_active_scope() {
        with_counting(|| {
            // Outside any timer, allocations land in the unscoped residual.
            assert_eq!(MEM_TLS.with(|t| t.slot.get()), SLOT_UNSCOPED);
            let before = thread_snapshot();
            let unscoped_before = MEM_TLS.with(|t| t.bytes[SLOT_UNSCOPED].get());
            let held = vec![0u8; 4096];
            std::hint::black_box(&held);
            let after = thread_snapshot();
            let unscoped_after = MEM_TLS.with(|t| t.bytes[SLOT_UNSCOPED].get());
            assert!(after.allocs > before.allocs);
            assert!(
                unscoped_after >= unscoped_before + 4096,
                "unscoped slot grew by {} (< 4096)",
                unscoped_after - unscoped_before
            );
        });
    }

    #[test]
    fn alloc_scope_restores_the_previous_slot() {
        with_counting(|| {
            let outer = MEM_TLS.with(|t| t.slot.get());
            let mut timer = MemScopeTimer::new();
            assert_eq!(MEM_TLS.with(|t| t.slot.get()), Phase::EngineLoop.index());
            timer.switch(Phase::Release);
            assert_eq!(MEM_TLS.with(|t| t.slot.get()), Phase::Release.index());
            let _ = timer.finish();
            assert_eq!(MEM_TLS.with(|t| t.slot.get()), outer);
        });
    }

    #[test]
    fn scope_timer_attributes_per_phase_and_reports_deltas_only() {
        with_counting(|| {
            let mut timer = MemScopeTimer::new();
            let prev = timer.switch(Phase::VictimSelect);
            assert_eq!(prev, Phase::EngineLoop);
            let v = vec![0u64; 512]; // 4096 bytes in victim_select
            std::hint::black_box(&v);
            assert_eq!(timer.switch(Phase::Create), Phase::VictimSelect);
            let c = vec![0u8; 64];
            std::hint::black_box(&c);
            let breakdown = timer.finish();
            assert!(breakdown.bytes_for("victim_select") >= 4096);
            assert!(breakdown.slots[Phase::Create.index()].allocs >= 1);
            assert_eq!(
                breakdown.total_allocs,
                breakdown.slots.iter().map(|s| s.allocs).sum::<u64>()
            );
            // A fresh timer immediately finished sees (almost) nothing:
            // only its own bookkeeping, which allocates nothing.
            let empty = MemScopeTimer::new().finish();
            assert_eq!(empty.total_allocs, 0, "{:?}", empty);
        });
    }

    #[test]
    fn disabled_gate_counts_nothing() {
        let _gate = lock_gate();
        set_enabled(false);
        let before = thread_snapshot();
        let v = vec![0u8; 8192];
        std::hint::black_box(&v);
        let after = thread_snapshot();
        assert_eq!(before, after);
    }

    #[test]
    fn global_snapshot_moves_and_peak_dominates_live() {
        with_counting(|| {
            let before = snapshot();
            let v = vec![0u8; 1 << 16];
            std::hint::black_box(&v);
            let during = snapshot();
            assert!(during.allocs > before.allocs);
            assert!(during.alloc_bytes >= before.alloc_bytes + (1 << 16));
            assert!(during.peak_live_bytes >= during.live_bytes.min(1 << 16));
            drop(v);
            let after = snapshot();
            assert!(after.deallocs > before.deallocs);
        });
    }

    #[test]
    fn realloc_keeps_event_and_byte_accounting_balanced() {
        with_counting(|| {
            let base = thread_snapshot();
            let mut v: Vec<u8> = vec![0; 64];
            for _ in 0..6 {
                let extra = v.len();
                v.extend(std::iter::repeat_n(1u8, extra));
            }
            std::hint::black_box(&v);
            let grown = thread_snapshot().since(base);
            assert!(grown.bytes >= v.capacity() as u64);
            assert!(grown.allocs >= 1);
        });
    }

    #[test]
    fn breakdown_merge_table_and_counters_round_trip() {
        let mut a = MemBreakdown::empty();
        a.slots[Phase::Arrive.index()].allocs = 3;
        a.slots[Phase::Arrive.index()].bytes = 300;
        a.total_allocs = 3;
        a.total_bytes = 300;
        let mut b = MemBreakdown::empty();
        b.slots[SLOT_UNSCOPED].allocs = 2;
        b.slots[SLOT_UNSCOPED].bytes = 200;
        b.total_allocs = 2;
        b.total_bytes = 200;
        a.merge(&b);
        assert_eq!(a.total_allocs, 5);
        assert_eq!(a.bytes_for("unscoped"), 200);
        let table = a.table();
        assert!(table.contains("arrive"), "{table}");
        assert!(table.contains("unscoped"), "{table}");
        assert!(table.contains("total"), "{table}");

        let json = serde_json::to_string(&a).unwrap();
        let back: MemBreakdown = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);

        let timing = PhaseBreakdown {
            batch: 1,
            total_secs: 2e-6,
            phases: vec![
                crate::PhaseStat {
                    phase: "arrive".to_string(),
                    count: 1,
                    secs: 1e-6,
                },
                crate::PhaseStat {
                    phase: "create".to_string(),
                    count: 1,
                    secs: 1e-6,
                },
            ],
        };
        let counters = a.chrome_counter_events(0, 7, &timing);
        assert_eq!(counters.len(), 2, "{counters:?}");
        assert!(counters[0].contains("\"ph\":\"C\""));
        assert!(counters[0].contains("\"arrive\":300"));
        assert!(counters[1].contains("\"create\":0"));
    }

    #[test]
    fn peak_rss_parses_on_linux() {
        let rss = peak_rss_bytes();
        if std::path::Path::new("/proc/self/status").exists() {
            let rss = rss.expect("VmHWM present on Linux");
            assert!(rss > 0);
        }
    }
}
