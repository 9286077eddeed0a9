//! Tracing from outside the program: a counting global allocator and a
//! [`ProvRecorder`] wrapper that times and counts each hook.
//!
//! Both are switched on only in the traced run (`--trace 1`). In an
//! untraced run the allocator costs one relaxed atomic load per call and
//! the wrapper is not used at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use dpc_common::{NodeId, Tuple};
use dpc_engine::{ProvMeta, ProvRecorder};
use dpc_ndlog::Rule;
use dpc_telemetry::TelemetryHandle;

/// The system allocator, counting allocations and bytes while enabled.
///
/// The counters are statistics that publish no other data, so every
/// access is `Relaxed`; the benchmark is single-threaded anyway.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for `dealloc` pass through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Allocations (including reallocations) and bytes requested so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    pub count: u64,
    pub bytes: u64,
}

impl Allocs {
    pub fn now() -> Allocs {
        Allocs {
            count: ALLOCS.load(Ordering::Relaxed),
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        }
    }

    pub fn since(self, earlier: Allocs) -> Allocs {
        Allocs {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Count allocations while `f` runs and return them with its result.
pub fn counting<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    COUNTING.store(true, Ordering::Relaxed);
    let before = Allocs::now();
    let out = f();
    let used = Allocs::now().since(before);
    COUNTING.store(false, Ordering::Relaxed);
    (out, used)
}

/// Wall time, calls and allocations of one recorder hook.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookStat {
    pub nanos: u64,
    pub calls: u64,
    pub allocs: u64,
}

impl HookStat {
    pub fn secs(&self) -> f64 {
        self.nanos as f64 * 1e-9
    }
}

/// Times and counts the drive-phase hooks of the wrapped recorder.
///
/// The wrapper forwards every call unchanged, so the scheme's metadata,
/// storage and wire bytes stay exactly those of the bare recorder.
pub struct TimedRecorder<R> {
    pub inner: R,
    /// `on_input`, `on_rule`, `on_output` and `on_sig`, in that order.
    pub hooks: [HookStat; 4],
}

impl<R> TimedRecorder<R> {
    pub fn new(inner: R) -> Self {
        TimedRecorder {
            inner,
            hooks: [HookStat::default(); 4],
        }
    }

    /// Total wall seconds spent inside the hooks.
    pub fn total_secs(&self) -> f64 {
        self.hooks.iter().map(HookStat::secs).sum()
    }

    fn timed<T>(&mut self, hook: usize, f: impl FnOnce(&mut R) -> T) -> T {
        let a0 = Allocs::now();
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        let stat = &mut self.hooks[hook];
        stat.nanos += t0.elapsed().as_nanos() as u64;
        stat.calls += 1;
        stat.allocs += Allocs::now().since(a0).count;
        out
    }
}

impl<R: ProvRecorder> ProvRecorder for TimedRecorder<R> {
    fn on_input(&mut self, node: NodeId, event: &Tuple, meta: &mut ProvMeta) {
        self.timed(0, |r| r.on_input(node, event, meta))
    }

    fn on_rule(
        &mut self,
        node: NodeId,
        rule: &Rule,
        event: &Tuple,
        slow: &[Tuple],
        head: &Tuple,
        meta: &ProvMeta,
    ) -> ProvMeta {
        self.timed(1, |r| r.on_rule(node, rule, event, slow, head, meta))
    }

    fn on_output(&mut self, node: NodeId, output: &Tuple, meta: &ProvMeta) {
        self.timed(2, |r| r.on_output(node, output, meta))
    }

    fn on_sig(&mut self, node: NodeId) {
        self.timed(3, |r| r.on_sig(node))
    }

    // Base installs happen during set-up, before the drive; they pass
    // through untimed.
    fn on_base_install(&mut self, node: NodeId, tuple: &Tuple) {
        self.inner.on_base_install(node, tuple)
    }

    fn storage_at(&self, node: NodeId) -> usize {
        self.inner.storage_at(node)
    }

    fn attach_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.inner.attach_telemetry(telemetry)
    }
}
