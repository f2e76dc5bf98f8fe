//! Seeded input generation. The program under test only ever sees what is
//! made here: the same `--seed` gives byte-identical pages, bodies and
//! session orders, and [`Inputs::hash`] says so.

use fractal_core::meta::ClientEnv;
use fractal_core::presets::ClientClass;
use fractal_workload::mutate::EditProfile;
use fractal_workload::PageSet;

use crate::Workload;

/// Distinct client environments in the Fig. 9(a) stream.
pub const N_ENVS: usize = 12;
/// Size of the page a cold session fetches.
pub const COLD_PAGE_BYTES: usize = 16 * 1024;
/// Pages in the warm set (the paper's ~135 KB pages).
pub const WARM_PAGES: u32 = 24;
/// Content ids the `republish_mixed` writer rotates over.
pub const PUBLISH_IDS: usize = 8;

/// Environment `i` of the Fig. 9(a) mixed-client stream: the three paper
/// classes with four memory sizes each, so the adaptation cache sees
/// repeats but not a single key. (The same stream `fractal-bench` uses,
/// copied so this package does not depend on it.)
pub fn client_env(i: usize) -> ClientEnv {
    let class = ClientClass::ALL[i % 3];
    let mut env = class.env();
    env.dev.memory_mb = match (i / 3) % 4 {
        0 => env.dev.memory_mb,
        1 => env.dev.memory_mb / 2,
        2 => env.dev.memory_mb * 2,
        _ => env.dev.memory_mb + 128,
    };
    env
}

/// SplitMix64: the benchmark's only randomness.
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// `n` indices below `kinds`, each kind as often as any other (±1, the
/// low kinds taking the remainder), in seeded order. The multiset does not
/// depend on the seed, only the order does — so every seed offers the same
/// amount of work.
fn balanced_order(rng: &mut Rng, n: usize, kinds: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).map(|i| i % kinds).collect();
    rng.shuffle(&mut order);
    order
}

/// One warm page: the version the client holds and the one it fetches.
pub struct WarmPage {
    /// Version 0 bytes.
    pub v0: Vec<u8>,
    /// Version 1 bytes (localized edits of `v0`).
    pub v1: Vec<u8>,
}

/// Everything a workload feeds the program, made from the seed alone.
pub struct Inputs {
    /// The 16 KB page cold sessions fetch.
    pub cold_page: Vec<u8>,
    /// Environment index of every session of one round, in hand-off order
    /// (cold workloads), or page index of every session (`warm_fetch`).
    pub order: Vec<usize>,
    /// `warm_fetch` only: the page set.
    pub warm_pages: Vec<WarmPage>,
    /// `republish_mixed` only: the bodies the writer publishes.
    pub publish_bodies: Vec<Vec<u8>>,
    /// FNV-1a over all of the above.
    pub hash: u64,
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
}

impl Inputs {
    /// Generates the inputs of `workload`; `round_sessions` is how many
    /// sessions one round hands off.
    pub fn generate(workload: Workload, seed: u64, round_sessions: usize) -> Inputs {
        let mut rng = Rng::new(seed);
        let (cold_page, warm_pages, publish_bodies) = match workload {
            Workload::WarmFetch => {
                let set = PageSet::new(seed, WARM_PAGES);
                let pages: Vec<WarmPage> = (0..WARM_PAGES)
                    .map(|p| WarmPage {
                        v0: set.original(p).to_bytes(),
                        v1: set.version(p, 1, EditProfile::Localized).to_bytes(),
                    })
                    .collect();
                (pages[0].v0[..COLD_PAGE_BYTES].to_vec(), pages, Vec::new())
            }
            _ => {
                let page = PageSet::new(seed, 1).original(0).to_bytes();
                let bodies = if workload == Workload::RepublishMixed {
                    let stride = (page.len() - COLD_PAGE_BYTES) / PUBLISH_IDS;
                    (0..PUBLISH_IDS)
                        .map(|k| page[k * stride..k * stride + COLD_PAGE_BYTES].to_vec())
                        .collect()
                } else {
                    Vec::new()
                };
                (page[..COLD_PAGE_BYTES].to_vec(), Vec::new(), bodies)
            }
        };
        let kinds = if workload == Workload::WarmFetch { WARM_PAGES as usize } else { N_ENVS };
        let order = balanced_order(&mut rng, round_sessions, kinds);

        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        fnv(&mut hash, &seed.to_le_bytes());
        fnv(&mut hash, &cold_page);
        for &o in &order {
            fnv(&mut hash, &(o as u32).to_le_bytes());
        }
        for p in &warm_pages {
            fnv(&mut hash, &p.v0);
            fnv(&mut hash, &p.v1);
        }
        for b in &publish_bodies {
            fnv(&mut hash, b);
        }
        Inputs { cold_page, order, warm_pages, publish_bodies, hash }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_balanced_and_seeded() {
        let a = balanced_order(&mut Rng::new(1), 512, N_ENVS);
        let b = balanced_order(&mut Rng::new(2), 512, N_ENVS);
        assert_ne!(a, b, "the seed drives the order");
        let count = |v: &[usize], k| v.iter().filter(|&&x| x == k).count();
        for k in 0..N_ENVS {
            assert_eq!(count(&a, k), count(&b, k), "the multiset does not depend on the seed");
            assert!((42..=43).contains(&count(&a, k)));
        }
    }

    #[test]
    fn twelve_distinct_environments() {
        let envs: std::collections::HashSet<_> = (0..N_ENVS).map(client_env).collect();
        assert_eq!(envs.len(), N_ENVS);
        assert_eq!(client_env(0), client_env(N_ENVS));
    }
}
