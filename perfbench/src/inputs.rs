//! Seeded inputs. Everything the program under test receives — signals
//! and the serve request mix — is drawn from the soi-testkit PRNG keyed by
//! the `--seed` argument, one independent stream per purpose, so the same
//! seed always produces byte-identical inputs.

use soi_num::Complex64;
use soi_testkit::TestRng;

/// Independent generator for one purpose (`stream`) under `seed`.
pub fn rng(seed: u64, stream: u64) -> TestRng {
    TestRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `count` complex signals of length `n`, uniform in the unit square.
pub fn complex_signals(seed: u64, stream: u64, count: usize, n: usize) -> Vec<Vec<Complex64>> {
    let mut r = rng(seed, stream);
    (0..count).map(|_| r.complex_vec(n)).collect()
}

/// `count` real signals of length `n`, uniform in `[-1, 1)`.
pub fn real_signals(seed: u64, stream: u64, count: usize, n: usize) -> Vec<Vec<f64>> {
    let mut r = rng(seed, stream);
    (0..count).map(|_| r.f64_vec(n, -1.0..1.0)).collect()
}

/// A real signal as the complex input of the exact reference FFT.
pub fn as_complex(x: &[f64]) -> Vec<Complex64> {
    x.iter().map(|&v| Complex64::new(v, 0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(v: &[Vec<Complex64>]) -> Vec<u64> {
        v.iter()
            .flatten()
            .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(
            bytes(&complex_signals(42, 1, 2, 1000)),
            bytes(&complex_signals(42, 1, 2, 1000))
        );
        let a: Vec<u64> = real_signals(42, 2, 2, 1000)
            .concat()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let b: Vec<u64> = real_signals(42, 2, 2, 1000)
            .concat()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_or_stream_gives_different_inputs() {
        let base = bytes(&complex_signals(42, 1, 2, 1000));
        assert_ne!(base, bytes(&complex_signals(43, 1, 2, 1000)));
        assert_ne!(base, bytes(&complex_signals(42, 2, 2, 1000)));
        let sigs = complex_signals(42, 1, 2, 1000);
        assert_ne!(sigs[0], sigs[1], "distinct inputs within one run");
    }
}
