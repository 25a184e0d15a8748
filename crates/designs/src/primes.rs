//! Primality testing, factorisation and primitive roots over `u64`.
//!
//! The exponentiation disguise (§4.2 of the paper) needs a prime modulus `N`
//! and a primitive element `g ∈ Z_N`; the Singer construction needs the
//! factorisation of `q³ − 1` to certify a generator of `GF(q³)*`. Everything
//! is deterministic for the full `u64` range.

use crate::arith::{gcd, mul_mod, pow_mod};

/// Deterministic Miller–Rabin witnesses covering all `u64`
/// (Sinclair 2011 / Jaeschke; standard minimal base set).
const MR_WITNESSES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];

/// Deterministic primality test for any `u64`.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // n - 1 = d * 2^s with d odd
    let mut d = n - 1;
    let mut s = 0u32;
    while d & 1 == 0 {
        d >>= 1;
        s += 1;
    }
    'witness: for &a in &MR_WITNESSES {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..s {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Smallest prime `>= n` (panics only if no prime fits in `u64`, which cannot
/// happen for `n <= 18446744073709551557`).
pub fn next_prime(mut n: u64) -> u64 {
    if n <= 2 {
        return 2;
    }
    if n.is_multiple_of(2) {
        n += 1;
    }
    loop {
        if is_prime(n) {
            return n;
        }
        n = n.checked_add(2).expect("no prime found in u64 range");
    }
}

/// Pollard's rho with Brent's cycle detection. Returns a non-trivial factor
/// of composite `n` (which must be odd, composite and not a prime power check
/// is not required — any composite works eventually).
fn pollard_rho(n: u64) -> u64 {
    debug_assert!(n > 1 && !is_prime(n));
    if n.is_multiple_of(2) {
        return 2;
    }
    // Deterministic seed sequence; retry with a different increment on failure.
    let mut c: u64 = 1;
    loop {
        let f = |x: u64| -> u64 { (mul_mod(x, x, n) + c) % n };
        let mut x: u64 = 2;
        let mut y: u64 = 2;
        let mut d: u64 = 1;
        let mut count = 0u64;
        while d == 1 {
            x = f(x);
            y = f(f(y));
            d = gcd(x.abs_diff(y), n);
            count += 1;
            if count > 1 << 24 {
                break; // pathological cycle, retry with new c
            }
        }
        if d != n && d != 1 {
            return d;
        }
        c += 1;
    }
}

/// Full prime factorisation of `n`, returned as ascending `(prime, exponent)`
/// pairs. `factorize(0)` and `factorize(1)` return an empty vector.
pub fn factorize(mut n: u64) -> Vec<(u64, u32)> {
    let mut out: Vec<(u64, u32)> = Vec::new();
    if n < 2 {
        return out;
    }
    // Strip small primes first; this keeps Pollard rho off easy cases.
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47] {
        if n == 1 {
            break;
        }
        let mut e = 0u32;
        while n.is_multiple_of(p) {
            n /= p;
            e += 1;
        }
        if e > 0 {
            out.push((p, e));
        }
    }
    let mut stack = vec![n];
    let mut rest: Vec<u64> = Vec::new();
    while let Some(m) = stack.pop() {
        if m == 1 {
            continue;
        }
        if is_prime(m) {
            rest.push(m);
        } else {
            let d = pollard_rho(m);
            stack.push(d);
            stack.push(m / d);
        }
    }
    rest.sort_unstable();
    let mut i = 0;
    while i < rest.len() {
        let p = rest[i];
        let mut e = 0u32;
        while i < rest.len() && rest[i] == p {
            e += 1;
            i += 1;
        }
        out.push((p, e));
    }
    out.sort_unstable();
    out
}

/// The distinct prime factors of `n`.
pub fn distinct_prime_factors(n: u64) -> Vec<u64> {
    factorize(n).into_iter().map(|(p, _)| p).collect()
}

/// `true` iff `g` generates the multiplicative group of `Z_p` (`p` prime).
pub fn is_primitive_root(g: u64, p: u64) -> bool {
    if p == 2 {
        return g % 2 == 1;
    }
    if g.is_multiple_of(p) {
        return false;
    }
    let group = p - 1;
    distinct_prime_factors(group)
        .into_iter()
        .all(|q| pow_mod(g, group / q, p) != 1)
}

/// Smallest primitive root of prime `p`.
pub fn primitive_root(p: u64) -> u64 {
    debug_assert!(is_prime(p), "{p} is not prime");
    if p == 2 {
        return 1;
    }
    let factors = distinct_prime_factors(p - 1);
    (2..p)
        .find(|&g| factors.iter().all(|&q| pow_mod(g, (p - 1) / q, p) != 1))
        .expect("every prime has a primitive root")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_primes_classified() {
        let primes: Vec<u64> = (0..100).filter(|&n| is_prime(n)).collect();
        assert_eq!(
            primes,
            vec![
                2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
                83, 89, 97
            ]
        );
    }

    #[test]
    fn large_prime_and_composite() {
        assert!(is_prime(18_446_744_073_709_551_557)); // largest u64 prime
        assert!(!is_prime(18_446_744_073_709_551_555));
        assert!(is_prime(2_147_483_647)); // 2^31 - 1 (Mersenne)
        assert!(!is_prime(2_147_483_649));
        // Carmichael numbers must be rejected.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 825_265] {
            assert!(!is_prime(c), "{c} is Carmichael, not prime");
        }
    }

    #[test]
    fn next_prime_rounds_up() {
        assert_eq!(next_prime(0), 2);
        assert_eq!(next_prime(14), 17);
        assert_eq!(next_prime(17), 17);
    }

    #[test]
    fn factorize_known() {
        assert_eq!(factorize(1), vec![]);
        assert_eq!(factorize(12), vec![(2, 2), (3, 1)]);
        assert_eq!(factorize(97), vec![(97, 1)]);
        assert_eq!(
            factorize(2 * 3 * 5 * 7 * 11 * 13),
            vec![(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1)]
        );
        // q^3 - 1 for q = 1009 (Singer-sized input)
        let n = 1009u64.pow(3) - 1;
        let f = factorize(n);
        let back: u64 = f.iter().map(|&(p, e)| p.pow(e)).product();
        assert_eq!(back, n);
        assert!(f.iter().all(|&(p, _)| is_prime(p)));
    }

    #[test]
    fn factorize_semiprime() {
        // Two ~30-bit primes: forces Pollard rho.
        let p = 1_073_741_789u64;
        let q = 1_073_741_827u64;
        assert!(is_prime(p) && is_prime(q));
        assert_eq!(factorize(p * q), vec![(p, 1), (q, 1)]);
    }

    #[test]
    fn primitive_roots_of_13() {
        // Z_13* generators: 2, 6, 7, 11. The paper uses g = 7.
        let roots: Vec<u64> = (1..13).filter(|&g| is_primitive_root(g, 13)).collect();
        assert_eq!(roots, vec![2, 6, 7, 11]);
        assert_eq!(primitive_root(13), 2);
        assert!(is_primitive_root(7, 13));
    }

    proptest! {
        #[test]
        fn prop_factorize_roundtrip(n in 2u64..1_000_000_000) {
            let f = factorize(n);
            let back: u64 = f.iter().map(|&(p, e)| p.pow(e)).product();
            prop_assert_eq!(back, n);
            for &(p, _) in &f {
                prop_assert!(is_prime(p));
            }
        }

        #[test]
        fn prop_is_prime_matches_trial_division(n in 0u64..50_000) {
            let trial = n >= 2 && (2..n).take_while(|d| d * d <= n).all(|d| n % d != 0);
            prop_assert_eq!(is_prime(n), trial);
        }

        #[test]
        fn prop_primitive_root_generates(pidx in 0usize..16) {
            let primes = [3u64, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59];
            let p = primes[pidx];
            let g = primitive_root(p);
            let mut seen = vec![false; p as usize];
            let mut x = 1u64;
            for _ in 0..p - 1 {
                seen[x as usize] = true;
                x = mul_mod(x, g, p);
            }
            prop_assert!((1..p).all(|i| seen[i as usize]));
        }
    }
}
