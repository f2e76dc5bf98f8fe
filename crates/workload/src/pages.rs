//! Web pages: 5 KB of markup plus four medical images (~130 KB), and
//! version chains produced by the mutation operators.

use fractal_crypto::wire::{counted, Sink};

use crate::image::{standard_view, Image};
use crate::mutate::{mutate_images, mutate_text, EditProfile};
use crate::text;

/// One versioned web page.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Page {
    /// Page id within its set.
    pub id: u32,
    /// Version number (0 = original).
    pub version: u32,
    /// The markup part (~5 KB).
    pub text: Vec<u8>,
    /// The four image views.
    pub images: Vec<Image>,
}

impl Page {
    /// Serializes the page as delivered over the wire: text, then each
    /// image, each part length-prefixed.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size());
        self.encode(&mut out);
        out
    }

    /// Total serialized size, counted instead of written.
    pub fn size(&self) -> usize {
        counted(|c| self.encode(c))
    }

    fn encode(&self, out: &mut impl Sink) {
        out.u32(self.text.len() as u32);
        out.u32(self.images.len() as u32);
        out.put(&self.text);
        for image in &self.images {
            out.u32(image.wire_len() as u32);
            image.encode(out);
        }
    }
}

/// The experimental content set: `n` pages, each with a version chain.
#[derive(Clone, Debug)]
pub struct PageSet {
    seed: u64,
    n_pages: u32,
}

impl PageSet {
    /// The paper's configuration: 75 pages.
    pub fn paper(seed: u64) -> PageSet {
        PageSet { seed, n_pages: 75 }
    }

    /// A custom-sized set.
    pub fn new(seed: u64, n_pages: u32) -> PageSet {
        assert!(n_pages > 0);
        PageSet { seed, n_pages }
    }

    /// Number of pages.
    pub fn len(&self) -> u32 {
        self.n_pages
    }

    /// Whether the set is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Materializes version 0 of page `id`.
    pub fn original(&self, id: u32) -> Page {
        assert!(id < self.n_pages);
        let base = self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(id as u64);
        Page {
            id,
            version: 0,
            text: text::generate(base, 5 * 1024),
            images: (0..4).map(|i| standard_view(base.wrapping_add(1000 + i))).collect(),
        }
    }

    /// Materializes version `v` of page `id` by applying `profile`'s
    /// mutations `v` times. Deterministic: the same `(id, v)` always yields
    /// the same bytes. A caller that wants several versions of one page
    /// steps [`versions`](Self::versions) instead, which renders the
    /// original once.
    pub fn version(&self, id: u32, v: u32, profile: EditProfile) -> Page {
        self.versions(id, profile).nth(v as usize).expect("a version chain never ends")
    }

    /// The version chain of page `id` under `profile`, from the original:
    /// item `v` is [`version(id, v, profile)`](Self::version), one round of
    /// mutations after the item before it.
    pub fn versions(&self, id: u32, profile: EditProfile) -> impl Iterator<Item = Page> + '_ {
        let mut page = self.original(id);
        (0..).map(move |v: u32| {
            if let Some(step) = v.checked_sub(1) {
                let step_seed = self
                    .seed
                    .wrapping_mul(0xD134_2543_DE82_EF95)
                    .wrapping_add(((id as u64) << 20) | step as u64);
                page.text = mutate_text(&page.text, step_seed, profile);
                mutate_images(&mut page.images, step_seed, profile);
                page.version = v;
            }
            page.clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_sizes() {
        let set = PageSet::paper(42);
        assert_eq!(set.len(), 75);
        let sizes: Vec<usize> = (0..75).map(|i| set.original(i).size()).collect();
        let avg = sizes.iter().sum::<usize>() / sizes.len();
        // "average size of about 135KB"
        assert!((128_000..145_000).contains(&avg), "average page size {avg}, want ≈135KB");
    }

    #[test]
    fn pages_are_deterministic_and_distinct() {
        let set = PageSet::paper(7);
        assert_eq!(set.original(3), set.original(3));
        assert_ne!(set.original(3).to_bytes(), set.original(4).to_bytes());
        let other = PageSet::paper(8);
        assert_ne!(set.original(3).to_bytes(), other.original(3).to_bytes());
    }

    #[test]
    fn versions_are_deterministic() {
        let set = PageSet::new(9, 5);
        let a = set.version(2, 3, EditProfile::Localized);
        let b = set.version(2, 3, EditProfile::Localized);
        assert_eq!(a, b);
        assert_eq!(a.version, 3);
    }

    #[test]
    fn version_zero_is_original() {
        let set = PageSet::new(9, 5);
        assert_eq!(set.version(1, 0, EditProfile::Localized), set.original(1));
    }

    #[test]
    fn a_chain_numbers_its_versions_from_the_original() {
        let set = PageSet::new(9, 5);
        for profile in EditProfile::ALL {
            let numbers: Vec<_> =
                set.versions(2, profile).take(3).map(|p| (p.id, p.version)).collect();
            assert_eq!(numbers, [(2, 0), (2, 1), (2, 2)]);
        }
    }

    #[test]
    fn successive_versions_differ_but_not_completely() {
        let set = PageSet::new(10, 3);
        let v0 = set.original(0).to_bytes();
        let v1 = set.version(0, 1, EditProfile::Localized).to_bytes();
        assert_ne!(v0, v1);
        // Count identical bytes at identical offsets: localized edits keep
        // the bulk in place.
        let same = v0.iter().zip(&v1).filter(|(a, b)| a == b).count();
        assert!(
            same as f64 > v0.len().min(v1.len()) as f64 * 0.7,
            "only {same}/{} bytes preserved",
            v0.len()
        );
    }

    #[test]
    #[should_panic]
    fn out_of_range_page_panics() {
        PageSet::new(1, 2).original(5);
    }
}
