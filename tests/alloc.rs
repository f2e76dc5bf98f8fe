//! What decoding and instantiation allocate, counted.
//!
//! A checkout from an admitted module's instance pool allocates nothing, a
//! deployed PAD holds no instance between its calls, counting an
//! instruction's length allocates nothing, and no decoder of untrusted bytes
//! reserves more than its input can carry, whatever a header declares.
//!
//! The one place in the workspace outside `crates/core/src/sys.rs` with an
//! `unsafe` item: a counting `GlobalAlloc` can be written no other way, and
//! it lives in this test binary alone (`scripts/audits.sh` names the file).
//! It counts the calling thread's allocations, and the largest of them,
//! while that thread has asked for them, so the harness's own threads do
//! not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use fractal::core::inp::{InpMessage, INP_VERSION};
use fractal::core::meta::{AppMeta, PadId, PadMeta, PadOverhead};
use fractal::core::presets::ClientClass;
use fractal::core::server::AdaptiveContentMode;
use fractal::core::testbed::Testbed;
use fractal::crypto::Digest;
use fractal::protocols::bitmap::Bitmap;
use fractal::protocols::{huffman, lz77, recipe, DiffCodec, ProtocolId};
use fractal::vm::bytecode::PLAIN_OPS;
use fractal::vm::module::{Module, SignedModule};
use fractal::vm::{assemble, Machine, Op, SandboxPolicy};

/// What one thread has allocated since it began counting.
#[derive(Clone, Copy, Default)]
struct Tally {
    /// Allocations, reallocations included.
    count: u64,
    /// Bytes of the largest single one.
    largest: usize,
    /// A size to look for (0: none), and how many allocations had it.
    watch: (usize, u64),
}

thread_local! {
    /// `Some`: this thread is counting, and has allocated this much.
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `const`-initialised
// thread-local `Cell` with no destructor, so touching it neither allocates
// nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count(size: usize) {
    TALLY.with(|t| {
        t.set(t.get().map(|t| Tally {
            count: t.count + 1,
            largest: t.largest.max(size),
            watch: (t.watch.0, t.watch.1 + u64::from(size == t.watch.0)),
        }))
    });
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What this thread allocates while `f` runs, watching for allocations of
/// `watch` bytes.
fn tally_of<T>(watch: usize, f: impl FnOnce() -> T) -> (T, Tally) {
    TALLY.with(|t| t.set(Some(Tally { watch: (watch, 0), ..Tally::default() })));
    let out = f();
    let tally = TALLY.with(|t| t.replace(None)).expect("counting was on");
    (out, tally)
}

/// Allocations this thread makes while `f` runs.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, tally) = tally_of(0, f);
    (out, tally.count)
}

/// Allocations of exactly `size` bytes this thread makes while `f` runs.
fn allocations_of<T>(size: usize, f: impl FnOnce() -> T) -> (T, u64) {
    let (out, tally) = tally_of(size, f);
    (out, tally.watch.1)
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

/// 64 clients deploy one PAD and each decodes once while all are alive. A
/// deployment holds no instance, and each call returns the one it leased
/// before the next call leases, so the PAD's linear memory is allocated
/// once, not once per live client (P54).
#[test]
fn live_clients_of_one_pad_allocate_its_memory_once() {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let class = ClientClass::LaptopWlan;
    let pad = tb.proxy.negotiate(tb.app_id, class.env()).unwrap().remove(0);
    let wire = tb.pad_repo.get(pad.id).unwrap();
    let memory =
        Module::from_bytes(&SignedModule::from_wire(&wire).unwrap().bytes).unwrap().memory_bytes();
    let page = b"sixty-four clients, one sandbox. ".repeat(100);
    tb.server.publish(1, page.clone());
    let payload = tb.server.respond(1, None, 0, pad.protocol).unwrap().payload;

    let (clients, memories) = allocations_of(memory, || {
        let mut clients = Vec::new();
        for _ in 0..64 {
            let mut client = tb.client(class);
            client.deploy_pad(&pad, &wire).unwrap();
            assert_eq!(client.decode_content(pad.id, 1, &payload).unwrap(), page);
            clients.push(client);
        }
        clients
    });
    let recycled: u64 = clients.iter().map(|c| c.stats().instances_recycled).sum();
    assert_eq!((memories, recycled), (1, 63), "one instance served all 64 calls");
}

#[test]
fn an_instruction_length_is_counted_without_allocating() {
    let with_immediates = [
        Op::Jmp(-5),
        Op::JmpIf(1234),
        Op::JmpIfZ(0),
        Op::Call(3),
        Op::HostCall(1),
        Op::PushI8(-1),
        Op::PushI32(7),
        Op::PushI64(i64::MIN),
        Op::LocalGet(0),
        Op::LocalSet(1),
        Op::LocalTee(2),
    ];
    for op in PLAIN_OPS.iter().map(|row| row.2).chain(with_immediates) {
        let (len, allocations) = allocations_in(|| op.encoded_len());
        assert_eq!(allocations, 0, "{op:?}: counting its {len} bytes allocated");
    }
}

/// What a decoder may reserve for an input of `n` bytes: a fixed allowance
/// plus `PER_INPUT_BYTE` per byte. The densest format is LZ77's, whose
/// 3-byte match token stands for 131 output bytes.
const ALLOWANCE: usize = 1024;
/// See [`ALLOWANCE`].
const PER_INPUT_BYTE: usize = 64;

/// A header declaring 2^31 − 1 (bytes, blocks or elements), little-endian.
const HUGE: [u8; 4] = [0xff, 0xff, 0xff, 0x7f];

/// A decoder's name, a hostile input, and the decode: `true` when it is
/// refused.
type Case = (&'static str, Vec<u8>, fn(&[u8]) -> bool);

/// An INP frame of type `msg_type` around `body`.
fn frame(msg_type: u8, body: &[u8]) -> Vec<u8> {
    let mut f = vec![b'I', b'N', 0, INP_VERSION, msg_type];
    f.extend_from_slice(&(body.len() as u32).to_le_bytes()[..3]);
    f.extend_from_slice(body);
    f
}

#[test]
fn a_hostile_header_reserves_no_more_than_its_bytes_can_carry() {
    let lone_pad = AppMeta {
        app_id: fractal::core::AppId(1),
        pads: vec![PadMeta {
            id: PadId(1),
            protocol: ProtocolId::Gzip,
            size: 0,
            overhead: PadOverhead {
                server_ms_per_mb: 0.0,
                client_ms_per_mb: 0.0,
                traffic_ratio: 1.0,
            },
            digest: Digest([0; 20]),
            url: String::new(),
            parent: None,
            children: Vec::new(),
        }],
    };
    let mut many_children = lone_pad.to_bytes();
    let at = many_children.len() - 2;
    many_children[at..].copy_from_slice(&[0xff, 0xff]);

    let cases: [Case; 10] = [
        ("recipe::apply", HUGE.to_vec(), |b| recipe::apply(&[], b).is_err()),
        ("Bitmap::decode", [&HUGE[..], &HUGE, &[1, 0, 0, 0, 0]].concat(), |b| {
            Bitmap::default().decode(&[], b).is_err()
        }),
        ("lz77::decompress", HUGE.to_vec(), |b| lz77::decompress(b).is_err()),
        ("huffman::decompress", [&HUGE[..], &[0x11; 128]].concat(), |b| {
            huffman::decompress(b).is_err()
        }),
        ("PAD_META_REP", frame(5, &[0xff, 0xff]), |b| InpMessage::from_bytes(b).is_err()),
        ("APP_REQ", frame(8, &[1, 0, 0, 0, 0xff, 0xff]), |b| InpMessage::from_bytes(b).is_err()),
        ("AppMeta", vec![1, 0, 0, 0, 0xff, 0xff], |b| AppMeta::from_bytes(b).is_err()),
        ("AppMeta's PAD children", many_children, |b| AppMeta::from_bytes(b).is_err()),
        ("Module functions", [&b"FVM\x01"[..], &[1, 0, 0, 0, 0, 1]].concat(), |b| {
            Module::from_bytes(b).is_err()
        }),
        ("Module data segments", [&b"FVM\x01"[..], &[1, 0, 0, 0, 0, 0, 0, 1]].concat(), |b| {
            Module::from_bytes(b).is_err()
        }),
    ];
    for (what, input, decode) in cases {
        let (refused, tally) = tally_of(0, || decode(&input));
        assert!(refused, "{what}: a hostile header decoded");
        let bound = ALLOWANCE + PER_INPUT_BYTE * input.len();
        assert!(
            tally.largest <= bound,
            "{what}: {} bytes reserved for a {}-byte input (bound {bound})",
            tally.largest,
            input.len()
        );
    }
}
