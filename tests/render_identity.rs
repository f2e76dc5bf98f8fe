//! Pixel and byte identity of the page synthesizer.
//!
//! `Image::render` sums its field a row at a time, blobs outer and pixels
//! inner; a page serializes into one presized buffer; a version chain is
//! stepped once from its original. None of that may move a byte: every
//! figure, the benchmark's input hash and every payload size are functions
//! of these pages. [`reference_render`] is the per-pixel loop the kernel
//! replaced, kept here as the oracle, and the digests below were taken from
//! the serializer and the version stepping the rewrite replaced.

use fractal::workload::image::Image;
use fractal::workload::mutate::EditProfile;
use fractal::workload::PageSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The renderer as it stood before the row-at-a-time rewrite: every pixel
/// sums every blob in its own loop.
fn reference_render(seed: u64, width: usize, height: usize, n_blobs: usize) -> Image {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1357_9bdf_2468_ace0);
    let blobs: Vec<(f64, f64, f64, f64)> = (0..n_blobs)
        .map(|_| {
            (
                rng.gen_range(0.0..width as f64),
                rng.gen_range(0.0..height as f64),
                rng.gen_range((width.min(height) as f64) * 0.05..(width.min(height) as f64) * 0.3),
                rng.gen_range(500.0..8000.0),
            )
        })
        .collect();
    let mut pixels = Vec::with_capacity(width * height);
    for y in 0..height {
        for x in 0..width {
            let mut v = 0.0f64;
            for &(bx, by, r, amp) in &blobs {
                let dx = x as f64 - bx;
                let dy = y as f64 - by;
                let d2 = (dx * dx + dy * dy) / (r * r);
                v += amp / (1.0 + d2);
            }
            // Coarse acquisition quantization (DICOM-style window
            // levelling) plus periodic sensor dither: gives the smooth
            // field byte-level plateaus so the serialized image
            // compresses ~2.5x under LZ77 (page-level ratio ~0.40), like real medical imagery.
            let quantized = (v / 64.0).round() * 64.0;
            let noise = ((x * 31 + y * 17) % 7) as f64;
            pixels.push((quantized + noise).min(65535.0) as u16);
        }
    }
    Image { width, height, pixels }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Renders one case both ways and counts it.
fn assert_identical(cases: &mut usize, seed: u64, width: usize, height: usize, n_blobs: usize) {
    let got = Image::render(seed, width, height, n_blobs);
    assert!(
        got == reference_render(seed, width, height, n_blobs),
        "pixels differ: seed {seed:#x}, {width}x{height}, {n_blobs} blobs"
    );
    *cases += 1;
}

#[test]
fn renders_match_the_reference_loop() {
    let mut state = 0x2005_0045_u64;
    let mut below = |n: u64| xorshift(&mut state) % n;
    let mut cases = 0;
    // The standard case-study view, and the full re-renders of churn.
    for _ in 0..200 {
        let seed = below(u64::MAX);
        assert_identical(&mut cases, seed, 127, 128, 6);
    }
    // The patches `edit_region` draws: localized regions (an eighth to a
    // third of a view a side) and the shifting profile's top strip.
    for _ in 0..3000 {
        let (seed, w, h) = (below(u64::MAX), 15 + below(27), 16 + below(26));
        assert_identical(&mut cases, seed, w as usize, h as usize, 3);
    }
    for _ in 0..200 {
        let seed = below(u64::MAX);
        assert_identical(&mut cases, seed, 127, 8, 3);
    }
    // Small and thin shapes, one pixel, and no blobs at all.
    for _ in 0..6000 {
        let (seed, w, h, blobs) = (below(u64::MAX), 1 + below(40), 1 + below(40), below(9));
        assert_identical(&mut cases, seed, w as usize, h as usize, blobs as usize);
    }
    for seed in 0..500 {
        assert_identical(&mut cases, seed, 1, 1, (seed % 9) as usize);
    }
    // An empty image has no room for a blob: the reference loop panics on
    // drawing one, so it is compared blob-free, and the new renderer must
    // draw the same empty image whatever it is asked for.
    for n in 0..100 {
        for (w, h) in [(0, n), (n, 0)] {
            assert_identical(&mut cases, n as u64, w, h, 0);
            assert_eq!(
                Image::render(n as u64, w, h, 1 + n % 8),
                reference_render(n as u64, w, h, 0)
            );
        }
    }
    assert!(cases >= 10_000, "{cases} cases");
}

/// v0 and v1 of every page of the 24-page set the benchmark's `warm_fetch`
/// and the identity suites use: FNV-1a of each, as the parent serialized
/// them.
const PAGE_DIGESTS: [(u64, u64); 24] = [
    (0x0d3e4c5d3ce72458, 0x43665905188f81a2),
    (0xde2e082dee53bef8, 0xf2feecf043cfd974),
    (0xa5fcc9eb735e5ccc, 0x57a27ad8947889bf),
    (0xe6bb180a7c004d38, 0xdfd5eb113fa25b7d),
    (0xca127b798f3f43bd, 0xa21f3d79caa67b46),
    (0x818eef5a27ec0b85, 0x670b160c4c71b365),
    (0xae4b53547dc36da8, 0xb3444696ee07bb3c),
    (0x786c2357765afa03, 0xb25bad4b15f49b8e),
    (0xd5e3c9c7b9fc9983, 0xa78c624b90342139),
    (0x913e17aaba4698dd, 0x9fb77165ed4af840),
    (0xf0f9891c73df9a2b, 0xb29245076b52322b),
    (0x9371f0149e65956d, 0x820736661f02d3af),
    (0x381ba0bd65ceb156, 0x5c59fb6aaf1b3800),
    (0x360b2a29b256a6f6, 0x3d284e9bb5d169c4),
    (0x2dc8ae13e7a9fdab, 0x1ccc9015c4c71bb1),
    (0x81c633c387b4aecb, 0x462405b638a1873b),
    (0x78b0d96b68377860, 0xfbf220495c68a3b2),
    (0xc21d81af5971aa57, 0xb23ad0dfee03743f),
    (0xb59397739fca6f0d, 0x33414663160ebba6),
    (0x192ddd4f46b0f387, 0x18236ba87437fd4a),
    (0x6a0f6b54a74d298d, 0x05cd90e62ebcfc08),
    (0xd7f027c76af49291, 0x86ace6136eb3433e),
    (0xa8444f50c43f4e32, 0x03a6c6af62304b53),
    (0x56035b878e9d595d, 0x30ec814d7e2f4555),
];

#[test]
fn warm_pages_keep_their_bytes() {
    let set = PageSet::new(2005, 24);
    for (p, &(want_v0, want_v1)) in (0..).zip(&PAGE_DIGESTS) {
        let mut chain = set.versions(p, EditProfile::Localized);
        for (v, want) in [(0, want_v0), (1, want_v1)] {
            let page = chain.next().expect("a version chain never ends");
            let bytes = page.to_bytes();
            assert_eq!(fnv(&bytes), want, "page {p} v{v}");
            assert_eq!(page.size(), bytes.len(), "page {p} v{v}: size counts what to_bytes writes");
        }
    }
    // The entry points the benchmark calls step the same chain.
    for p in 0..3 {
        assert_eq!(fnv(&set.original(p).to_bytes()), PAGE_DIGESTS[p as usize].0);
        let v1 = set.version(p, 1, EditProfile::Localized).to_bytes();
        assert_eq!(fnv(&v1), PAGE_DIGESTS[p as usize].1);
    }
}

/// The 16 KB prefix a cold session fetches, at a few benchmark seeds.
#[test]
fn cold_prefixes_keep_their_bytes() {
    for (seed, want) in [
        (1, 0x830f71af87cd591f),
        (2, 0xaa2370463edf6257),
        (3, 0x5371d84098a6f216),
        (2005, 0x4b4c9d153166253b),
    ] {
        let page = PageSet::new(seed, 1).original(0).to_bytes();
        assert_eq!(fnv(&page[..16 * 1024]), want, "seed {seed}");
    }
}

/// Four steps of four pages under every edit profile: the stepping path
/// past v1, and the churn profile's full re-renders.
#[test]
fn version_chains_keep_their_bytes() {
    let set = PageSet::new(2005, 4);
    for (profile, want, want_len) in [
        (EditProfile::Localized, 0xf228b5b3a9fa269c, 2164864),
        (EditProfile::Shifting, 0xce3f99813589c861, 2165633),
        (EditProfile::Churn, 0x925f238ec06016b3, 2166465),
    ] {
        let mut all = Vec::new();
        for p in 0..4 {
            for page in set.versions(p, profile).take(4) {
                all.extend(page.to_bytes());
            }
        }
        assert_eq!((fnv(&all), all.len()), (want, want_len), "{}", profile.name());
        assert!(all.ends_with(&set.version(3, 3, profile).to_bytes()), "{}", profile.name());
    }
}
