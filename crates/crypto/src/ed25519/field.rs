//! Arithmetic in the field GF(2^255 - 19).
//!
//! **Representation.** A field element is four little-endian *saturated*
//! `u64` limbs holding a value in `[0, 2^256)`. It is *loosely reduced*:
//! values stay below `2^256` (which is `< 2p + 38`) and are fully reduced
//! modulo `p = 2^255 - 19` only by [`Fe::to_bytes`], [`Fe::is_zero`] and
//! [`Fe::is_negative`]. Everything else wraps at `2^256` and repairs the
//! wrap with the identity `2^256 ≡ 38 (mod p)`:
//!
//! - [`Fe::add`] / [`Fe::sub`] are one four-limb carry (borrow) chain, then
//!   `± 38 ·` the carry through a second chain — straight-line code, no
//!   branch and no loop;
//! - [`Fe::mul`] is the 16 `u64 × u64 → u128` products of the schoolbook
//!   method into a 512-bit value whose high half re-enters times 38;
//!   [`Fe::square`] computes the 6 off-diagonal products once, doubles
//!   them by a shift, and adds the 4 squares: 10 products;
//! - [`Fe::invert`] and [`Fe::pow_p58`] are fixed addition chains: 254 (251)
//!   squarings and 11 multiplications, where bit-at-a-time exponentiation
//!   took ~255 of each.
//!
//! A 5 × 51-bit unsaturated representation (no carry chains in `add`, a
//! parallel carry pass in `sub`, 25 products per `mul`) was built to the
//! same interface and measured against this one on the whole signature
//! path: its additions cost about half as much, but a point operation is
//! bound by multiplier throughput, where 25 products lose to 16 + 4. It was
//! slower on every signature operation, so this one stayed; the numbers are
//! in CHANGES.md, PR 18.
//!
//! **Nothing here is constant-time.** Inversion and square roots use fixed
//! addition chains, but full reduction loops on the value and the callers
//! branch on secret-dependent data. This repository is a research
//! reproduction, not a hardened crypto library.

// Inherent `add`/`mul`/... are deliberate: operator traits would hide the
// modular semantics, and call sites read better fully qualified.
#![allow(clippy::should_implement_trait)]

/// A field element modulo `p = 2^255 - 19`: four little-endian u64 limbs,
/// loosely reduced (any value below `2^256`).
///
/// Two equal values can have different limbs, so there is no `PartialEq`:
/// compare with [`Fe::equals`] or through [`Fe::to_bytes`].
#[derive(Clone, Copy, Debug)]
pub struct Fe(pub(crate) [u64; 4]);

/// The prime `p = 2^255 - 19` as limbs.
const P: [u64; 4] = [
    0xffff_ffff_ffff_ffed,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
    0x7fff_ffff_ffff_ffff,
];

const fn load8(b: &[u8; 32], i: usize) -> u64 {
    u64::from_le_bytes([
        b[i],
        b[i + 1],
        b[i + 2],
        b[i + 3],
        b[i + 4],
        b[i + 5],
        b[i + 6],
        b[i + 7],
    ])
}

/// `a + b + carry`, as `(sum, carry out)`.
#[inline(always)]
const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let v = a as u128 + b as u128 + carry as u128;
    (v as u64, (v >> 64) as u64)
}

/// `a - b - borrow`, as `(difference, borrow out)`.
#[inline(always)]
const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let v = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (v as u64, (v >> 64) as u64 & 1)
}

/// Adds `carry · 2^256 ≡ 38 · carry` into `v`. The first pass can wrap
/// `2^256` once more; what is left is then so small that adding 38 again
/// cannot.
#[inline(always)]
const fn fold_carry(v: [u64; 4], carry: u64) -> Fe {
    let (r0, c) = adc(v[0], 38 * carry, 0);
    let (r1, c) = adc(v[1], 0, c);
    let (r2, c) = adc(v[2], 0, c);
    let (r3, c) = adc(v[3], 0, c);
    Fe([r0 + 38 * c, r1, r2, r3])
}

/// Folds an 8-limb (512-bit) value modulo `p`: `lo + 38 · hi`, then the
/// carry of that (at most 38) once more.
#[inline(always)]
fn fold512(l: &[u64; 8]) -> Fe {
    let mut out = [0u64; 4];
    let mut carry: u128 = 0;
    for i in 0..4 {
        let v = l[i] as u128 + l[i + 4] as u128 * 38 + carry;
        out[i] = v as u64;
        carry = v >> 64;
    }
    fold_carry(out, carry as u64)
}

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0]);

    /// The curve constant `d = -121665/121666 mod p`.
    // 37095705934669439343138083508754565189542113879843219016388785533085940283555
    pub const D: Fe = Fe::from_bytes(&[
        0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75, 0xab, 0xd8, 0x41, 0x41, 0x4d, 0x0a, 0x70,
        0x00, 0x98, 0xe8, 0x79, 0x77, 0x79, 0x40, 0xc7, 0x8c, 0x73, 0xfe, 0x6f, 0x2b, 0xee, 0x6c,
        0x03, 0x52,
    ]);

    /// `2d`, the constant of the addition law.
    pub const D2: Fe = Fe::D.add(Fe::D);

    /// `sqrt(-1) mod p`, used during point decompression.
    // 19681161376707505956807079304988542015446066515923890162744021073123829784752
    pub const SQRT_M1: Fe = Fe::from_bytes(&[
        0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4, 0x78, 0xe4, 0x2f, 0xad, 0x06, 0x18, 0x43,
        0x2f, 0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00, 0x4d, 0x2b, 0x0b, 0xdf, 0xc1, 0x4f, 0x80, 0x24,
        0x83, 0x2b,
    ]);

    /// Parses 32 little-endian bytes, masking the top bit (per RFC 8032).
    /// Values in `[p, 2^255)` are accepted and mean their residue.
    pub const fn from_bytes(bytes: &[u8; 32]) -> Fe {
        Fe([
            load8(bytes, 0),
            load8(bytes, 8),
            load8(bytes, 16),
            load8(bytes, 24) & 0x7fff_ffff_ffff_ffff,
        ])
    }

    /// Serializes to 32 little-endian bytes with full reduction modulo `p`.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (chunk, limb) in out.chunks_exact_mut(8).zip(self.reduced()) {
            chunk.copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// The limbs of the unique representative in `[0, p)`.
    fn reduced(self) -> [u64; 4] {
        let mut v = self.0;
        // The loose representation is < 2^256 < 2p + 38: subtract p while
        // the value is at least p, which is at most three times.
        while v.iter().rev().cmp(P.iter().rev()).is_ge() {
            let (r0, b) = sbb(v[0], P[0], 0);
            let (r1, b) = sbb(v[1], P[1], b);
            let (r2, b) = sbb(v[2], P[2], b);
            let (r3, _) = sbb(v[3], P[3], b);
            v = [r0, r1, r2, r3];
        }
        v
    }

    /// Field addition.
    #[inline(always)]
    pub const fn add(self, rhs: Fe) -> Fe {
        let (a, b) = (self.0, rhs.0);
        let (r0, c) = adc(a[0], b[0], 0);
        let (r1, c) = adc(a[1], b[1], c);
        let (r2, c) = adc(a[2], b[2], c);
        let (r3, c) = adc(a[3], b[3], c);
        fold_carry([r0, r1, r2, r3], c)
    }

    /// Field subtraction: a borrow out means the limbs hold the true
    /// difference plus `2^256`, i.e. 38 too much; take it off, and if that
    /// wraps below zero in turn (the value was tiny), once more.
    #[inline(always)]
    pub fn sub(self, rhs: Fe) -> Fe {
        let (a, b) = (self.0, rhs.0);
        let (r0, c) = sbb(a[0], b[0], 0);
        let (r1, c) = sbb(a[1], b[1], c);
        let (r2, c) = sbb(a[2], b[2], c);
        let (r3, c) = sbb(a[3], b[3], c);
        let (r0, c) = sbb(r0, 38 * c, 0);
        let (r1, c) = sbb(r1, 0, c);
        let (r2, c) = sbb(r2, 0, c);
        let (r3, c) = sbb(r3, 0, c);
        Fe([r0.wrapping_sub(38 * c), r1, r2, r3])
    }

    /// Field negation.
    #[inline(always)]
    pub fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Field multiplication: schoolbook 4 × 4 → 8 limbs, row by row, then
    /// `fold512`.
    ///
    /// Each step computes `out[i+j] + a[i] * b[j] + carry`, whose maximum
    /// value is exactly `u128::MAX`, so no intermediate overflows.
    #[inline(always)]
    pub fn mul(self, rhs: Fe) -> Fe {
        let (a, b) = (self.0, rhs.0);
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let v = out[i + j] as u128 + a[i] as u128 * b[j] as u128 + carry;
                out[i + j] = v as u64;
                carry = v >> 64;
            }
            // `out[i + 4]` has not been written yet for this row.
            out[i + 4] = carry as u64;
        }
        fold512(&out)
    }

    /// Field squaring: the six products `a[i]·a[j]`, `i < j`, once; doubled
    /// by a one-bit shift of the whole 512-bit value (they sum to less than
    /// `2^511`); then the four squares on the even limb boundaries.
    #[inline(always)]
    pub fn square(self) -> Fe {
        let a = self.0;
        let mut out = [0u64; 8];
        for i in 0..3 {
            let mut carry: u128 = 0;
            for j in (i + 1)..4 {
                let v = out[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry;
                out[i + j] = v as u64;
                carry = v >> 64;
            }
            out[i + 4] = carry as u64;
        }
        let mut top = 0u64;
        for limb in out.iter_mut() {
            let next = *limb >> 63;
            *limb = (*limb << 1) | top;
            top = next;
        }
        let mut carry = 0u64;
        for i in 0..4 {
            let sq = a[i] as u128 * a[i] as u128;
            let (lo, c) = adc(out[2 * i], sq as u64, carry);
            let (hi, c) = adc(out[2 * i + 1], (sq >> 64) as u64, c);
            out[2 * i] = lo;
            out[2 * i + 1] = hi;
            carry = c;
        }
        fold512(&out)
    }

    /// `self^(2^k)`: `k` squarings.
    fn pow2k(self, k: u32) -> Fe {
        let mut x = self;
        for _ in 0..k {
            x = x.square();
        }
        x
    }

    /// `(self^(2^250 - 1), self^11)`: the shared prefix of the two
    /// exponentiations below, as the standard addition chain whose run
    /// lengths double (1, 5, 10, 20, 40, 50, 100, 200, 250 ones).
    fn pow_2_250_1(self) -> (Fe, Fe) {
        let z2 = self.square();
        let z9 = z2.pow2k(2).mul(self);
        let z11 = z9.mul(z2);
        let ones5 = z11.square().mul(z9);
        let ones10 = ones5.pow2k(5).mul(ones5);
        let ones20 = ones10.pow2k(10).mul(ones10);
        let ones40 = ones20.pow2k(20).mul(ones20);
        let ones50 = ones40.pow2k(10).mul(ones10);
        let ones100 = ones50.pow2k(50).mul(ones50);
        let ones200 = ones100.pow2k(100).mul(ones100);
        let ones250 = ones200.pow2k(50).mul(ones50);
        (ones250, z11)
    }

    /// Multiplicative inverse via Fermat's little theorem: `a^(p-2)` with
    /// `p - 2 = 2^255 - 21 = (2^250 - 1)·2^5 + 11`, in 254 squarings and 11
    /// multiplications.
    ///
    /// Returns zero for zero input.
    pub fn invert(self) -> Fe {
        let (ones250, z11) = self.pow_2_250_1();
        ones250.pow2k(5).mul(z11)
    }

    /// Raises to `(p-5)/8 = 2^252 - 3 = (2^250 - 1)·2^2 + 1`, the exponent
    /// used in square-root extraction.
    pub fn pow_p58(self) -> Fe {
        let (ones250, _) = self.pow_2_250_1();
        ones250.pow2k(2).mul(self)
    }

    /// True if the fully reduced value is zero.
    pub fn is_zero(self) -> bool {
        self.reduced() == [0; 4]
    }

    /// True if both are the same field element.
    pub fn equals(self, other: Fe) -> bool {
        self.sub(other).is_zero()
    }

    /// True if the fully reduced value is "negative" (odd) per RFC 8032.
    pub fn is_negative(self) -> bool {
        self.reduced()[0] & 1 == 1
    }

    /// Raises `self` to the power encoded by `exp` (32 little-endian
    /// bytes), one bit at a time: the oracle the addition chains and
    /// [`Fe::square`] are tested against.
    #[cfg(test)]
    pub(crate) fn pow(self, exp: &[u8; 32]) -> Fe {
        let mut result = Fe::ONE;
        for byte in exp.iter().rev() {
            for bit in (0..8).rev() {
                result = result.mul(result);
                if (byte >> bit) & 1 == 1 {
                    result = result.mul(self);
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fe(n: u64) -> Fe {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&n.to_le_bytes());
        Fe::from_bytes(&bytes)
    }

    fn same(a: Fe, b: Fe) -> bool {
        a.to_bytes() == b.to_bytes()
    }

    /// `p - n`, canonical, for small `n`.
    fn p_minus(n: u64) -> Fe {
        Fe([P[0] - n, P[1], P[2], P[3]])
    }

    /// `p - 2` and `(p - 5) / 8`, little-endian.
    fn exponents() -> ([u8; 32], [u8; 32]) {
        let mut p_minus_2 = [0xffu8; 32];
        p_minus_2[0] = 0xeb;
        p_minus_2[31] = 0x7f;
        let mut p58 = [0xffu8; 32];
        p58[0] = 0xfd;
        p58[31] = 0x0f;
        (p_minus_2, p58)
    }

    /// The largest loosely reduced value, `2^256 - 1 ≡ 37`.
    const WIDEST: Fe = Fe([u64::MAX; 4]);

    #[test]
    fn add_sub_roundtrip() {
        let a = fe(123456789);
        let b = fe(987654321);
        assert!(same(a.add(b).sub(b), a));
        assert!(same(a.sub(b).add(b), a), "through a negative difference");
    }

    #[test]
    fn mul_small() {
        assert!(same(fe(6).mul(fe(7)), fe(42)));
    }

    #[test]
    fn neg_cancels() {
        let a = fe(55);
        assert!(a.add(a.neg()).is_zero());
        assert!(Fe::ZERO.neg().is_zero());
    }

    #[test]
    fn p_and_its_neighbours_reduce() {
        // p itself, as loose limbs: reduces to zero.
        let p = Fe(P);
        assert!(p.is_zero());
        assert_eq!(p.to_bytes(), [0u8; 32]);
        // p - 1 is canonical, and even because p is odd.
        let p_minus_1 = Fe([P[0] - 1, P[1], P[2], P[3]]);
        assert!(!p_minus_1.is_zero());
        assert!(!p_minus_1.is_negative());
        assert!(same(p_minus_1.add(Fe::ONE), Fe::ZERO));
        // 2^255 - 1 = p + 18: a non-canonical encoding, accepted as 18.
        let mut bytes = [0xffu8; 32];
        assert!(same(Fe::from_bytes(&bytes), fe(18)));
        bytes[31] = 0x7f;
        assert!(same(Fe::from_bytes(&bytes), fe(18)), "bit 255 is masked");
        // 2p fits the loose representation and is zero too.
        assert!(p.add(p).is_zero());
    }

    #[test]
    fn the_wraps_at_2_256_are_repaired() {
        // Debug builds trap on overflow, so these also prove that no
        // intermediate exceeds its word at the largest inputs.
        assert!(same(WIDEST, fe(37)));
        assert!(same(WIDEST.mul(WIDEST), fe(37 * 37)));
        assert!(same(WIDEST.square(), fe(37 * 37)));
        // A sum that wraps, and whose fold wraps once more.
        assert!(same(WIDEST.add(WIDEST), fe(74)));
        assert!(same(WIDEST.add(Fe::ONE), fe(38)));
        let near = Fe([u64::MAX - 37, u64::MAX, u64::MAX, u64::MAX]); // 2^256 - 38 = 0
        assert!(near.is_zero());
        assert!(same(near.add(WIDEST), fe(37)));
        // A difference that borrows, and whose repair borrows once more.
        assert!(same(Fe::ZERO.sub(Fe::ONE), p_minus(1)));
        assert!(same(fe(37).sub(WIDEST), Fe::ZERO));
        assert!(same(fe(5).sub(fe(7)), p_minus(2)));
        assert!(same(Fe::ZERO.sub(WIDEST).add(WIDEST), Fe::ZERO));
    }

    #[test]
    fn invert_small() {
        let a = fe(12345);
        assert!(same(a.mul(a.invert()), Fe::ONE));
    }

    #[test]
    fn invert_zero_is_zero() {
        assert!(Fe::ZERO.invert().is_zero());
    }

    #[test]
    fn constants_are_what_they_claim() {
        let minus_one = Fe::ZERO.sub(Fe::ONE);
        assert!(same(Fe::SQRT_M1.square(), minus_one));
        // d = -121665 / 121666.
        assert!(same(Fe::D.mul(fe(121666)), fe(121665).neg()));
        assert!(same(Fe::D2, Fe::D.mul(fe(2))));
    }

    #[test]
    fn bytes_roundtrip() {
        let a = fe(0xdead_beef_1234_5678);
        assert!(same(Fe::from_bytes(&a.to_bytes()), a));
        let mut bytes = [0u8; 32];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(41).wrapping_add(7);
        }
        bytes[31] &= 0x3f; // below p: canonical, so the bytes come back
        assert_eq!(Fe::from_bytes(&bytes).to_bytes(), bytes);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = fe(3);
        let mut exp = [0u8; 32];
        exp[0] = 10; // a^10
        let mut expect = Fe::ONE;
        for _ in 0..10 {
            expect = expect.mul(a);
        }
        assert!(same(a.pow(&exp), expect));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The addition chains and the dedicated squaring agree with the
        /// bit-at-a-time exponentiation they replaced.
        #[test]
        fn chains_and_square_equal_generic_pow(bytes in any::<[u8; 32]>()) {
            let a = Fe::from_bytes(&bytes);
            let (p_minus_2, p58) = exponents();
            prop_assert!(same(a.invert(), a.pow(&p_minus_2)));
            prop_assert!(same(a.pow_p58(), a.pow(&p58)));
            let mut two = [0u8; 32];
            two[0] = 2;
            prop_assert!(same(a.square(), a.pow(&two)));
            prop_assert!(same(a.square(), a.mul(a)));
            // Loose (not fully reduced) values are valid inputs.
            let loose = a.add(Fe(P));
            prop_assert!(same(loose.square(), a.square()));
            prop_assert!(same(loose.mul(a), a.square()));
        }

        /// Ring laws on random elements, through the loose representation.
        #[test]
        fn ring_laws(x in any::<[u8; 32]>(), y in any::<[u8; 32]>(), z in any::<[u8; 32]>()) {
            let (a, b, c) = (Fe::from_bytes(&x), Fe::from_bytes(&y), Fe::from_bytes(&z));
            prop_assert!(same(a.mul(b), b.mul(a)));
            prop_assert!(same(a.mul(b.add(c)), a.mul(b).add(a.mul(c))));
            prop_assert!(same(a.mul(b.sub(c)), a.mul(b).sub(a.mul(c))));
            prop_assert!(same(a.sub(b).neg(), b.sub(a)));
            prop_assert!(a.sub(b).add(b).equals(a));
            prop_assert!(same(Fe::from_bytes(&a.to_bytes()), a));
        }
    }
}
