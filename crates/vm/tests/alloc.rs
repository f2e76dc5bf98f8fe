//! A checkout from an admitted module's instance pool allocates nothing.
//!
//! The one place in the workspace outside `crates/core/src/sys.rs` with an
//! `unsafe` item: a counting `GlobalAlloc` can be written no other way, and
//! it lives in this test binary alone (`scripts/audits.sh` names the file).
//! It counts the calling thread's allocations while that thread has asked
//! for them, so the harness's own threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use fractal_vm::{assemble, Machine, SandboxPolicy};

thread_local! {
    /// `Some(n)`: this thread is counting and has allocated `n` times.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `const`-initialised
// thread-local `Cell` with no destructor, so touching it neither allocates
// nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get().map(|n| n + 1)));
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let out = f();
    let counted = ALLOCATIONS.with(|n| n.replace(None)).expect("counting was on");
    (out, counted)
}

#[test]
fn a_pool_hit_allocates_nothing_and_a_miss_only_the_memory() {
    let src = r#"
        .memory 4
        .data 32 str:"segment"
        .func main args=1 locals=2
            push 1000
            local.get 0
            store64
            local.get 0
            call twice
            ret
        .func twice args=1 locals=0
            local.get 0
            push 2
            mul
            ret
    "#;
    let admitted = Arc::new(assemble(src).unwrap().analyzed(&SandboxPolicy::for_pads()).unwrap());

    // The counter counts: a first instance allocates its linear memory.
    let (first, on_miss) = allocations_in(|| Machine::new_analyzed(Arc::clone(&admitted)).unwrap());
    assert!(!first.is_recycled());
    assert_eq!(on_miss, 1, "a first instance is one allocation: the memory");

    // Run it, so its stacks have grown, and return it.
    let mut first = first;
    assert_eq!(first.call("main", &[21]), Ok(42));
    drop(first);

    let handle = Arc::clone(&admitted);
    let (mut second, on_hit) = allocations_in(|| Machine::new_analyzed(handle).unwrap());
    assert!(second.is_recycled());
    assert_eq!(on_hit, 0, "a checkout from the pool must not allocate");

    // Nor does running on what the first tenant grew, or returning it.
    let (result, running) = allocations_in(|| second.call("main", &[4]));
    assert_eq!((result, running), (Ok(8), 0));
    let ((), returning) = allocations_in(|| drop(second));
    assert_eq!(returning, 0);
}
