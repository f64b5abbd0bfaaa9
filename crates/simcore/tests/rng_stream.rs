//! `DetRng` stream goldens: an FNV-1a fold of 10 000 draws of each
//! drawing method, from a fresh stream per method, for the root seeds
//! `{0, 1, 42, u64::MAX}` and their `split` children at labels
//! `{0, 1, u64::MAX}`.
//!
//! The values were captured on the generator as it ran through the
//! vendored `rand` stand-in (the commit before `DetRng` owned its
//! xoshiro256++ state) and must never be re-blessed: any implementation
//! of the generator has to reproduce every stream draw for draw. Only
//! inherent `DetRng` methods are called, so the file does not depend on
//! how the generator is built.

use simcore::DetRng;

const SEEDS: [u64; 4] = [0, 1, 42, u64::MAX];
const LABELS: [u64; 3] = [0, 1, u64::MAX];
const DRAWS: usize = 10_000;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Folds `DRAWS` values of `draw(rng, i)` from a fresh copy of `rng`.
fn fold(rng: &DetRng, mut draw: impl FnMut(&mut DetRng, usize) -> u64) -> u64 {
    let mut r = rng.clone();
    let mut f = Fnv::new();
    for i in 0..DRAWS {
        f.word(draw(&mut r, i));
    }
    f.0
}

/// One row per stream: raw, below, between, unit_f64, chance, normal,
/// shuffle.
fn row(rng: &DetRng) -> [u64; 7] {
    const BOUNDS: [u64; 5] = [1, 7, 1000, 1 << 40, u64::MAX];
    const SPANS: [(u64, u64); 5] = [(0, 0), (10, 20), (5, 1 << 40), (1, u64::MAX), (7, 7)];
    const PS: [f64; 8] = [-1.0, 0.0, 0.01, 0.25, 0.5, 0.99, 1.0, 2.0];
    let mut deck: Vec<u64> = (0..DRAWS as u64).collect();
    rng.clone().shuffle(&mut deck);
    let mut shuffled = Fnv::new();
    deck.iter().for_each(|&x| shuffled.word(x));
    [
        fold(rng, |r, _| r.between(0, u64::MAX)),
        fold(rng, |r, i| r.below(BOUNDS[i % BOUNDS.len()])),
        fold(rng, |r, i| {
            let (lo, hi) = SPANS[i % SPANS.len()];
            r.between(lo, hi)
        }),
        fold(rng, |r, _| r.unit_f64().to_bits()),
        fold(rng, |r, i| r.chance(PS[i % PS.len()]) as u64),
        fold(rng, |r, _| r.normal(10.0, 2.0).to_bits()),
        shuffled.0,
    ]
}

/// The streams in table order: each root, then its three children.
fn streams() -> Vec<(String, DetRng)> {
    let mut out = Vec::new();
    for seed in SEEDS {
        let root = DetRng::new(seed);
        out.push((format!("{seed:#x}"), root.clone()));
        for label in LABELS {
            out.push((format!("{seed:#x}/{label:#x}"), root.split(label)));
        }
    }
    out
}

/// Row `0xffffffffffffffff/0x0` equals row `0x0`: `split` mixes
/// `seed · φ + label + φ`, which wraps to the mixer's fixed point 0 there.
#[rustfmt::skip]
const GOLDEN: [[u64; 7]; 16] = [
    [0x2bc2bc1d200cae1b, 0x64447fbf571caeaf, 0x046335a0fbaaa6fa, 0x2eb1d9a4711cd66f, 0xa576b83baac69e25, 0x995000b1eb661c35, 0xa53426da0f64c709], // 0x0
    [0x3a5c03e0be0db9aa, 0xf537fe94285a58ac, 0xb52ac5b81f5e1bbd, 0x3d858b26e0a9d0e4, 0x52e37126a2d05d04, 0x0c49ebcdd67e7233, 0xa19778a8e227c05d], // 0x0/0x0
    [0x358f90173bd271f0, 0xc53d2f6b144b5359, 0xa9eb875ff47d7f9f, 0xf809c1b9cb117825, 0x175202d0c424fea5, 0xd9fbb7e468da4d7e, 0xe297f733feee6099], // 0x0/0x1
    [0x25556e81cff94278, 0x1f2cdba0c76981ec, 0xe11910501d6bb578, 0xbe7d97b2c04ead31, 0x4cc66038285110c4, 0x1f879cdeca235f21, 0xf9271e2140c971b5], // 0x0/0xffffffffffffffff
    [0xc42373936c45d385, 0x46068436a60676b7, 0x13745c73cc173830, 0x1441c41d56edf6cf, 0xf933374a2c216f24, 0x2fe3d007a5691d39, 0x80efaf8864f22c79], // 0x1
    [0x5b2ce9a107f2135f, 0xfe262a80ed8c6e3e, 0x4f3a47d20b59e918, 0xa93c549e11ae76fb, 0x2e5ccb0fd79335e4, 0xe548ba11a8612f63, 0xe532f415deb15ef5], // 0x1/0x0
    [0x93ae61060fa07ac4, 0xa0692812d4dedc2f, 0x5391c047691a8c45, 0x304b31dab134dd0f, 0xd1e69b45582c2e64, 0x66928364e3c86bc3, 0x487a783acb2c0b91], // 0x1/0x1
    [0x0d68b29a4fbcde35, 0x7a27e3da5c1bcbd8, 0xbe6ce7c40214c0a8, 0x8e6232e3559aec51, 0xf7fe448eff589d25, 0x7c14977ad437d2fb, 0xd6d40b2b1e4eeb01], // 0x1/0xffffffffffffffff
    [0x3e45577167cea638, 0xb5a959e7c22e07a9, 0xe8c7666bda3e3272, 0x7f03ecc3e2bfa3d0, 0xe2adfde187932a64, 0x534d699ca46ae3f0, 0xe68fca41c3e7eec1], // 0x2a
    [0x01df14429181a094, 0x65a7d952bbccbae6, 0x851e64c28c1c8b6c, 0xa3c46feff0f2b829, 0x0d42bf955bbe2225, 0x4e6feedb4cf5ab09, 0x7da30af5a42afe0d], // 0x2a/0x0
    [0xf098ef8f268ba8a0, 0xed2d28351afc3c55, 0xfdc628cae30405a6, 0x6eb0e8ee3fe52fbf, 0x3e2e9651ea8efbc4, 0xe25d821d06d4076e, 0x7412a2cd8db62f29], // 0x2a/0x1
    [0xca1a26b5b325ee6e, 0xb8fb737efa980de7, 0xa474c75f250552f9, 0x1362578dc6732727, 0x325a77d6beccc404, 0x14946c1bb5775102, 0xfb65ea8a39e5da45], // 0x2a/0xffffffffffffffff
    [0x098dc72f110bda25, 0x3d26a371cd3f9b01, 0x47e423016adc5ebf, 0x522e8bf9ba65bb9b, 0x9f2bd0ac74832004, 0xfd33826361552c4c, 0x2c7ccf640b1f7085], // 0xffffffffffffffff
    [0x2bc2bc1d200cae1b, 0x64447fbf571caeaf, 0x046335a0fbaaa6fa, 0x2eb1d9a4711cd66f, 0xa576b83baac69e25, 0x995000b1eb661c35, 0xa53426da0f64c709], // 0xffffffffffffffff/0x0
    [0x070fd69da55e3b02, 0xdc20b077cf8daf90, 0x727fe14fe6e30a8e, 0x16ef5a9793514f1b, 0xedf00e7f2b857d64, 0xd82450acf45bcd48, 0x0f50f4707454eacd], // 0xffffffffffffffff/0x1
    [0xf70899e3f2734270, 0x8568b6d9c4c0b8bb, 0x427100d02d4c6802, 0x4b0d3786671fc4b0, 0x7b340b6a02bca044, 0xbfa290d89bd9556f, 0xf804d7d90c0e402d], // 0xffffffffffffffff/0xffffffffffffffff
];

#[test]
fn every_method_stream_is_pinned() {
    let streams = streams();
    assert_eq!(streams.len(), GOLDEN.len());
    for ((name, rng), want) in streams.iter().zip(GOLDEN) {
        assert_eq!(row(rng), want, "stream {name}");
    }
}
