//! Pins the exact output of the random regular graph generators.
//!
//! Every row of [`PINS`] records, for one generator call, the FNV-1a hash
//! of the canonical edge list (`edge_slice()`) and the generator RNG's next
//! `u64` after the call. The first catches any change to the emitted graph,
//! the second any change to how many draws the generator consumed, so a
//! rewrite of the generators must reproduce both to pass.
//!
//! If a change to generation is intended, every committed artifact that
//! draws a topology must be re-baselined with it; the failure message
//! prints the replacement table.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use rrb_graph::{gen, Graph};

#[derive(Clone, Copy, Debug, PartialEq)]
enum Gen {
    RandomRegular,
    Configuration,
}

/// `(generator, n, d, seed)` → `(edge-list hash, next rng u64)`.
type Pin = (Gen, usize, usize, u64, u64, u64);

/// The sparse grid: `random_regular` on every `(n, d)` with `n·d` even and
/// `2d ≤ n − 1`, plus `configuration_model`, which shares its stub pairing.
fn cases() -> Vec<(Gen, usize, usize, u64)> {
    let mut out = Vec::new();
    for n in [64usize, 100, 256, 1000, 4096, 1 << 15] {
        for d in [3usize, 4, 6, 8, 16, 30, 60] {
            if n * d % 2 == 1 || 2 * d > n - 1 {
                continue;
            }
            let seeds: &[u64] = if n * d > 100_000 { &[7] } else { &[1, 2, 3] };
            for &seed in seeds {
                out.push((Gen::RandomRegular, n, d, seed));
            }
        }
    }
    for (n, d) in [(64, 3), (1000, 8), (4096, 16)] {
        for seed in [1, 2] {
            out.push((Gen::Configuration, n, d, seed));
        }
    }
    out
}

fn fnv1a(g: &Graph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(u, v) in g.edge_slice() {
        for byte in [u, v].iter().flat_map(|w| w.as_u32().to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn pin(kind: Gen, n: usize, d: usize, seed: u64) -> Pin {
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = match kind {
        Gen::RandomRegular => gen::random_regular(n, d, &mut rng),
        Gen::Configuration => gen::configuration_model(n, d, &mut rng),
    }
    .unwrap_or_else(|e| panic!("{kind:?} n={n} d={d} seed={seed}: {e}"));
    (kind, n, d, seed, fnv1a(&g), rng.next_u64())
}

#[test]
fn generator_output_is_pinned() {
    let actual: Vec<Pin> = cases().into_iter().map(|(k, n, d, s)| pin(k, n, d, s)).collect();
    if actual != PINS {
        let table: String = actual
            .iter()
            .map(|(k, n, d, s, h, r)| format!("    (Gen::{k:?}, {n}, {d}, {s}, {h:#018x}, {r:#018x}),\n"))
            .collect();
        let first = actual.iter().zip(PINS).find(|(a, p)| a != p);
        panic!(
            "generator output changed (first differing row: {first:?}; {} rows vs {} pinned).\n\
             If the change is intended, replace PINS with:\n{table}",
            actual.len(),
            PINS.len()
        );
    }
}

#[rustfmt::skip]
const PINS: &[Pin] = &[
    (Gen::RandomRegular, 64, 3, 1, 0x40ffb58e297a0a35, 0xb8bf39adb1109219),
    (Gen::RandomRegular, 64, 3, 2, 0x8f9a069db659b005, 0x24da7a85b68599df),
    (Gen::RandomRegular, 64, 3, 3, 0x347647daece9f1b5, 0x96b18005dc64694c),
    (Gen::RandomRegular, 64, 4, 1, 0x81b4648cd0f13315, 0xa07c889675ac1ab2),
    (Gen::RandomRegular, 64, 4, 2, 0x038b997a264df2d5, 0xd65a9ebf4e8e4d95),
    (Gen::RandomRegular, 64, 4, 3, 0x0b5bacc76917ea95, 0x65aa8e9227b92221),
    (Gen::RandomRegular, 64, 6, 1, 0xefb1b4a347ec4035, 0x578c10be2763919c),
    (Gen::RandomRegular, 64, 6, 2, 0xfd1fdce4b3cff0c5, 0x3ce31295fe292b39),
    (Gen::RandomRegular, 64, 6, 3, 0x6fac3d06df80f795, 0x3ea38e36ede960b6),
    (Gen::RandomRegular, 64, 8, 1, 0x00cd62dacceaba55, 0x1bd0f6b5a136a23e),
    (Gen::RandomRegular, 64, 8, 2, 0xeeb0a0dacca57df5, 0x238df0dc7ef7c0a9),
    (Gen::RandomRegular, 64, 8, 3, 0x7de6dff2f3764885, 0x8c4cb35e95998d8c),
    (Gen::RandomRegular, 64, 16, 1, 0x140a672ecb11fef5, 0xcb05a85f82794ecf),
    (Gen::RandomRegular, 64, 16, 2, 0x3c69a03871f39d55, 0x91e0743f6f4b8a5c),
    (Gen::RandomRegular, 64, 16, 3, 0xea6558f35913f875, 0xe11c6f4069f59120),
    (Gen::RandomRegular, 64, 30, 1, 0x8c756c0b53029835, 0xbfc4b2aacee56483),
    (Gen::RandomRegular, 64, 30, 2, 0x586859f967307a45, 0x54522d07c5532963),
    (Gen::RandomRegular, 64, 30, 3, 0xbd31943c9d7b3925, 0x4bba0ed482122b05),
    (Gen::RandomRegular, 100, 3, 1, 0x0370cfa7c8dea725, 0x7597e4fcea339966),
    (Gen::RandomRegular, 100, 3, 2, 0x6de9e419c59eaa35, 0xe26fdb295eefcf13),
    (Gen::RandomRegular, 100, 3, 3, 0x6beea9de314a4e95, 0x37c8267721f1039d),
    (Gen::RandomRegular, 100, 4, 1, 0xfbf171781445a955, 0x3fa16a28c641e8c5),
    (Gen::RandomRegular, 100, 4, 2, 0x2277fb8364626315, 0xebac9a6aaf6f746e),
    (Gen::RandomRegular, 100, 4, 3, 0xf2b8a548ccaf5155, 0x89093a5cc1f8c59f),
    (Gen::RandomRegular, 100, 6, 1, 0xd18ee5521e3757e5, 0x6dcdb1c795add124),
    (Gen::RandomRegular, 100, 6, 2, 0xe91ecdfee2c177f5, 0x54e32a990676c3ef),
    (Gen::RandomRegular, 100, 6, 3, 0x93bf2f96a093faa5, 0x97ae9089bb7e0a77),
    (Gen::RandomRegular, 100, 8, 1, 0xbba053adaf38ddf5, 0x475e4f80034f9222),
    (Gen::RandomRegular, 100, 8, 2, 0x94d09f897f89c945, 0x1f0c8657b4683898),
    (Gen::RandomRegular, 100, 8, 3, 0x43fc473fb2b62925, 0xbf156b26c4343646),
    (Gen::RandomRegular, 100, 16, 1, 0x5a63f93b5b30fc15, 0x11352704c8598a23),
    (Gen::RandomRegular, 100, 16, 2, 0x4d6c17d618485ff5, 0xd2180699f52380af),
    (Gen::RandomRegular, 100, 16, 3, 0x4dc29f42bda7f555, 0x02d677ca6d85cef7),
    (Gen::RandomRegular, 100, 30, 1, 0x13289a998007df85, 0x7434b42eca803efd),
    (Gen::RandomRegular, 100, 30, 2, 0xbf951ff1f928ed45, 0xb58458828c7edcd9),
    (Gen::RandomRegular, 100, 30, 3, 0xab5f6ad889dc5335, 0xa82d319b0129c623),
    (Gen::RandomRegular, 256, 3, 1, 0x9f17a2dc8da758a5, 0xc026f7c587e1652e),
    (Gen::RandomRegular, 256, 3, 2, 0xb18a4fe6a19e4ee5, 0x93abeee68e4a7126),
    (Gen::RandomRegular, 256, 3, 3, 0x10433be1d0c81985, 0x71ddf057ef8bd195),
    (Gen::RandomRegular, 256, 4, 1, 0xccfe1b3ddc5e4405, 0x9c3a66c0f1c003a9),
    (Gen::RandomRegular, 256, 4, 2, 0x5c7e00a6a27d4d65, 0xa2a739f36dc90ec9),
    (Gen::RandomRegular, 256, 4, 3, 0x40038e21896ede75, 0x98964bc93a1106c0),
    (Gen::RandomRegular, 256, 6, 1, 0x3f494ccde6a64005, 0xd1789ae5de651380),
    (Gen::RandomRegular, 256, 6, 2, 0x14d729687decc635, 0x93e05c3432e52b4b),
    (Gen::RandomRegular, 256, 6, 3, 0xecb5bb54c46a6595, 0xa4f440ab70a5cdc3),
    (Gen::RandomRegular, 256, 8, 1, 0xe660bccddfcac295, 0x334999a22a7504ec),
    (Gen::RandomRegular, 256, 8, 2, 0x467560e08fe10df5, 0x23ba153323a38b3a),
    (Gen::RandomRegular, 256, 8, 3, 0xeb734fde2b9ad455, 0x943403aa7ec65b5f),
    (Gen::RandomRegular, 256, 16, 1, 0x27cb0108a9d62385, 0x765565425da935a7),
    (Gen::RandomRegular, 256, 16, 2, 0x27c9f6d6fe0ee045, 0x2043962509df9092),
    (Gen::RandomRegular, 256, 16, 3, 0xda85f8473ae917b5, 0xb78222762b2ce828),
    (Gen::RandomRegular, 256, 30, 1, 0x11bf6360943649a5, 0x3e3eb65b90d4404d),
    (Gen::RandomRegular, 256, 30, 2, 0x1a382c8e7b01f2a5, 0x94a7006031f16ff7),
    (Gen::RandomRegular, 256, 30, 3, 0xb5636a472070f035, 0xf16c8c55eac36263),
    (Gen::RandomRegular, 256, 60, 1, 0x328063380b0bd2e5, 0x29238d04d3368b30),
    (Gen::RandomRegular, 256, 60, 2, 0x2cc8208c640740c5, 0x39d75dc9aa07d7c8),
    (Gen::RandomRegular, 256, 60, 3, 0xefd2be6d36eb9145, 0x58985e32d024c87d),
    (Gen::RandomRegular, 1000, 3, 1, 0x9a8bc11ad1049afd, 0x250b52ebce963711),
    (Gen::RandomRegular, 1000, 3, 2, 0x17af88741a1aee0d, 0xf0f7adfe45450c87),
    (Gen::RandomRegular, 1000, 3, 3, 0x3fb8dbb117959199, 0x6096f4af8de0977e),
    (Gen::RandomRegular, 1000, 4, 1, 0xa7a0a04234f2638d, 0x7428367e2cf0dce3),
    (Gen::RandomRegular, 1000, 4, 2, 0x7eca7a1a5e6e35cd, 0xc0f17049b1fef938),
    (Gen::RandomRegular, 1000, 4, 3, 0x2e438a4b87b0845d, 0x97366e0e3c583acf),
    (Gen::RandomRegular, 1000, 6, 1, 0x312c5c298f017b25, 0xe8c543be4b84ec46),
    (Gen::RandomRegular, 1000, 6, 2, 0x75b57f4564014eb1, 0x3805ea9bfc352883),
    (Gen::RandomRegular, 1000, 6, 3, 0x50735e3fc91b7031, 0x8f4dd6dd600c9840),
    (Gen::RandomRegular, 1000, 8, 1, 0xe986ab1dd7a4f735, 0x7dddf2feac72e18f),
    (Gen::RandomRegular, 1000, 8, 2, 0x9bd308debe912dc5, 0x1748a3b4357a7b4b),
    (Gen::RandomRegular, 1000, 8, 3, 0xdf1cd6a5ed535071, 0x35e348440b1eec9c),
    (Gen::RandomRegular, 1000, 16, 1, 0xd4d252661fa238b1, 0x79bcd76f5cd5315f),
    (Gen::RandomRegular, 1000, 16, 2, 0xf32db19ecf9dcfc1, 0x6cbfb984c5c9b6b9),
    (Gen::RandomRegular, 1000, 16, 3, 0xc7f22abc808f2075, 0x59b643ccbfdb4ef1),
    (Gen::RandomRegular, 1000, 30, 1, 0x61cab7b6c0d005d1, 0xfebc0c0be77ff78c),
    (Gen::RandomRegular, 1000, 30, 2, 0x2cc5b60dcff3eea9, 0x29ccff40a8bd021f),
    (Gen::RandomRegular, 1000, 30, 3, 0x1e56e847e3d18ab5, 0xaee86d0ec249edb4),
    (Gen::RandomRegular, 1000, 60, 1, 0x97ee13d80eb74df1, 0xdaa0b13d8f39c4b3),
    (Gen::RandomRegular, 1000, 60, 2, 0x0bd3c58aaed0aa5d, 0x5912dc32721bc1fa),
    (Gen::RandomRegular, 1000, 60, 3, 0xc14a1c944d22bf35, 0xfd8f76ec163480fa),
    (Gen::RandomRegular, 4096, 3, 1, 0xe4d14db5165ebbb9, 0xd00c400bd16d1686),
    (Gen::RandomRegular, 4096, 3, 2, 0x667a758f28d3c311, 0x21cf13dfcccc2bbb),
    (Gen::RandomRegular, 4096, 3, 3, 0x0fd2a208e2a91901, 0x1c316b30ca0f3a70),
    (Gen::RandomRegular, 4096, 4, 1, 0x433fb7663fa92fc5, 0x10848b8e038d7c51),
    (Gen::RandomRegular, 4096, 4, 2, 0x17d379ea4b8a8e6d, 0x5ed91a117f245b5b),
    (Gen::RandomRegular, 4096, 4, 3, 0x6ac3aed58873efe5, 0x3e002bf4a4c1a213),
    (Gen::RandomRegular, 4096, 6, 1, 0x6af63c6f03c79a0d, 0xc377aa2b0268dbdc),
    (Gen::RandomRegular, 4096, 6, 2, 0x640c12adc4bf1791, 0x81bf978fc97e9443),
    (Gen::RandomRegular, 4096, 6, 3, 0x55995a67184d583d, 0x437c6b788aa22d7c),
    (Gen::RandomRegular, 4096, 8, 1, 0xb49181a895f72351, 0x5bcb5f61309b3dbd),
    (Gen::RandomRegular, 4096, 8, 2, 0xaad4301d6546be71, 0xd1e000be998d5fea),
    (Gen::RandomRegular, 4096, 8, 3, 0x13838d50e7b92ed9, 0x23df70073cbc64af),
    (Gen::RandomRegular, 4096, 16, 1, 0xbc45a0f77d512809, 0x4ead5f77fb425a7a),
    (Gen::RandomRegular, 4096, 16, 2, 0xb77a3888baf220e9, 0x35289633cf913b76),
    (Gen::RandomRegular, 4096, 16, 3, 0xf9524fa0f7edc045, 0xab6b5a7ef428a668),
    (Gen::RandomRegular, 4096, 30, 7, 0xfb5f9eeb92508cb5, 0x9e35bbd21af3fd66),
    (Gen::RandomRegular, 4096, 60, 7, 0x65e553c502202fdd, 0xe6e040428dba576e),
    (Gen::RandomRegular, 32768, 3, 1, 0xd22fbf1efef5defd, 0xf1db0e7b0b90f254),
    (Gen::RandomRegular, 32768, 3, 2, 0x58acc0861953b451, 0xe172439decc2969d),
    (Gen::RandomRegular, 32768, 3, 3, 0x87b9041f8fe69cdd, 0x407b00490b8c9e52),
    (Gen::RandomRegular, 32768, 4, 7, 0x8a84e17c4e58d4d5, 0x0dfbaa0560a6c101),
    (Gen::RandomRegular, 32768, 6, 7, 0x90a22fbb3c4643e9, 0x8f4221d397b7a92b),
    (Gen::RandomRegular, 32768, 8, 7, 0xdb5cd27e33cd9d71, 0xd1394981f8e349c0),
    (Gen::RandomRegular, 32768, 16, 7, 0x2f9e9a52e081e835, 0xc4d89f740b73f498),
    (Gen::RandomRegular, 32768, 30, 7, 0xf1f4aa02ba85b531, 0x99cf4376e3f5ac9c),
    (Gen::RandomRegular, 32768, 60, 7, 0x5d280025bed4bbd5, 0xeb4f422663eaf869),
    (Gen::Configuration, 64, 3, 1, 0x40ffb58e297a0a35, 0xb8bf39adb1109219),
    (Gen::Configuration, 64, 3, 2, 0x0151c858ef552545, 0x22de59d6bbb9aeaf),
    (Gen::Configuration, 1000, 8, 1, 0x13b5ea9be3122ffd, 0x93e4170a5d1e4e8e),
    (Gen::Configuration, 1000, 8, 2, 0x1bf554eee53a45e9, 0x9fa7c88229ad0647),
    (Gen::Configuration, 4096, 16, 1, 0x812cddae74e53099, 0xdc6c0bd2d3e13315),
    (Gen::Configuration, 4096, 16, 2, 0x5ef6499d06f585ad, 0x94cbad1e453f8cfa),
];
