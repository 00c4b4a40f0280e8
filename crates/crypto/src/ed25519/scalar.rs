//! Arithmetic modulo the Ed25519 group order
//! `l = 2^252 + 27742317777372353535851937790883648493`.
//!
//! Scalars are four little-endian `u64` limbs, always fully reduced modulo
//! `l`. Wide (512-bit) values — SHA-512 outputs and products — are reduced
//! by folding at bit 252: `l = 2^252 + c` with `c` only 125 bits long, so
//! `2^252 ≡ -c` and each fold trades the bits above 252 for a much shorter
//! product. The bit-at-a-time long division this replaced (a microsecond
//! per reduction, four per batched signature) is kept as the test oracle.
//!
//! This module also turns scalars into the digit strings the point
//! multiplications in [`super::point`] walk: signed radix-16 for the
//! fixed-base table, width-5 NAF for the per-point window tables.

// Inherent `add`/`mul`/... are deliberate: operator traits would hide the
// modular semantics, and call sites read better fully qualified.
#![allow(clippy::should_implement_trait)]
/// The group order `l` as little-endian limbs.
pub const L: [u64; 4] = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0x0000_0000_0000_0000,
    0x1000_0000_0000_0000,
];

/// A scalar modulo the Ed25519 group order, fully reduced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scalar(pub [u64; 4]);

impl Scalar {
    /// The zero scalar.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// The scalar one.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Parses 32 little-endian bytes and reduces modulo `l`.
    pub fn from_bytes(bytes: &[u8; 32]) -> Scalar {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(bytes);
        Scalar::from_bytes_wide(&wide)
    }

    /// Parses 32 little-endian bytes, returning `None` if not canonical
    /// (i.e. not already `< l`). RFC 8032 requires rejecting non-canonical
    /// `s` components during verification.
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            *limb = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        }
        if geq256(&limbs, &L) {
            None
        } else {
            Some(Scalar(limbs))
        }
    }

    /// Reduces a 64-byte little-endian value modulo `l` (as used for the
    /// SHA-512 outputs in EdDSA).
    pub fn from_bytes_wide(bytes: &[u8; 64]) -> Scalar {
        let mut limbs = [0u64; 8];
        for (i, limb) in limbs.iter_mut().enumerate() {
            *limb = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        }
        Scalar(mod_l_512(&limbs))
    }

    /// Serializes to 32 little-endian bytes.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Addition modulo `l`.
    pub fn add(self, rhs: Scalar) -> Scalar {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for (i, slot) in out.iter_mut().enumerate() {
            let v = self.0[i] as u128 + rhs.0[i] as u128 + carry as u128;
            *slot = v as u64;
            carry = (v >> 64) as u64;
        }
        // Both inputs < l < 2^253, so the sum fits in 256 bits (no carry) and
        // a single conditional subtraction reduces it.
        debug_assert_eq!(carry, 0);
        if geq256(&out, &L) {
            out = sub256(&out, &L);
        }
        Scalar(out)
    }

    /// Multiplication modulo `l`.
    pub fn mul(self, rhs: Scalar) -> Scalar {
        // Row-by-row schoolbook multiply; each step fits u128 exactly.
        let mut t = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let v = t[i + j] as u128 + self.0[i] as u128 * rhs.0[j] as u128 + carry;
                t[i + j] = v as u64;
                carry = v >> 64;
            }
            t[i + 4] = carry as u64;
        }
        Scalar(mod_l_512(&t))
    }

    /// Computes `self * b + c mod l` (the EdDSA response equation).
    pub fn mul_add(self, b: Scalar, c: Scalar) -> Scalar {
        self.mul(b).add(c)
    }
}

/// Signed radix-16 digits of a 256-bit little-endian integer: 64 digits in
/// `[-8, 8)` with `Σ dᵢ·16^i + carry·2^256` equal to the input. What the
/// fixed-base table of [`super::point::Point::mul_base`] is indexed by.
pub(crate) fn radix16(bytes: &[u8; 32]) -> ([i8; 64], bool) {
    let mut digits = [0i8; 64];
    let mut carry = 0;
    for (i, digit) in digits.iter_mut().enumerate() {
        let nibble = (bytes[i / 2] >> (4 * (i % 2))) & 0x0f;
        // Recentre: a nibble (plus carry) of 8..=16 becomes -8..=0, carry 1.
        let d = nibble as i8 + carry;
        carry = (d + 8) >> 4;
        *digit = d - (carry << 4);
    }
    (digits, carry == 1)
}

/// Width-5 non-adjacent form of a 256-bit little-endian integer: 257 digits,
/// each zero or odd in `[-15, 15]`, non-zero ones at least 5 positions
/// apart, with `Σ dᵢ·2^i` equal to the input.
pub(crate) fn naf5(bytes: &[u8; 32]) -> [i8; 257] {
    // A fifth zero limb, so a window may read past bit 255.
    let mut limbs = [0u64; 5];
    for (limb, chunk) in limbs.iter_mut().zip(bytes.chunks_exact(8)) {
        *limb = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
    }
    let mut naf = [0i8; 257];
    let mut carry = 0u64;
    let mut pos = 0;
    while pos < 257 {
        let (limb, bit) = (pos / 64, pos % 64);
        let bits = if bit <= 59 {
            limbs[limb] >> bit
        } else {
            limbs[limb] >> bit | limbs[limb + 1] << (64 - bit)
        };
        let window = carry + (bits & 31);
        if window & 1 == 0 {
            // Even: this position is zero, and the carry (if any) rides on.
            pos += 1;
            continue;
        }
        // Odd: take it as a digit in (-16, 16), leaving five zeros behind.
        carry = window >> 4;
        naf[pos] = window as i8 - ((carry as i8) << 5);
        pos += 5;
    }
    naf
}

/// `c = l - 2^252`, so that `2^252 ≡ -c (mod l)`.
const C: [u64; 2] = [L[0], L[1]];

/// Splits at bit 252: `(x mod 2^252, x >> 252)`.
fn split_252(x: &[u64; 8]) -> ([u64; 4], [u64; 5]) {
    let lo = [x[0], x[1], x[2], x[3] & ((1 << 60) - 1)];
    let mut hi = [0u64; 5];
    for (i, limb) in hi.iter_mut().enumerate() {
        *limb = x[3 + i] >> 60 | x.get(4 + i).map_or(0, |next| next << 4);
    }
    (lo, hi)
}

/// `a · c`: at most 320 + 125 bits, which fits seven limbs.
fn mul_c(a: &[u64; 5]) -> [u64; 8] {
    let mut out = [0u64; 8];
    for (j, c) in C.iter().enumerate() {
        let mut carry: u128 = 0;
        for (i, limb) in a.iter().enumerate() {
            let v = out[i + j] as u128 + *limb as u128 * *c as u128 + carry;
            out[i + j] = v as u64;
            carry = v >> 64;
        }
        out[5 + j] = carry as u64;
    }
    out
}

/// Reduces a 512-bit little-endian limb value modulo `l`.
///
/// Writing `x = lo + 2^252·hi` gives `x ≡ lo - c·hi`, and `c·hi` is 127
/// bits shorter than `x` was: four folds shrink 512 bits to 385, 258, 131
/// and then nothing above bit 252, with alternating signs —
/// `x ≡ lo₀ - lo₁ + lo₂ - lo₃`, every `loᵢ < 2^252 < l`. Adding `2l` keeps
/// the difference positive and below `4l`.
fn mod_l_512(limbs: &[u64; 8]) -> [u64; 4] {
    let mut lo = [[0u64; 4]; 4];
    let mut x = *limbs;
    for part in lo.iter_mut() {
        let (low, high) = split_252(&x);
        *part = low;
        x = mul_c(&high);
    }
    debug_assert_eq!(x, [0; 8], "the fourth fold leaves nothing above bit 252");
    let two_l = add256(&L, &L);
    let plus = add256(&add256(&lo[0], &lo[2]), &two_l);
    let minus = add256(&lo[1], &lo[3]);
    let mut r = sub256(&plus, &minus);
    while geq256(&r, &L) {
        r = sub256(&r, &L);
    }
    r
}

/// `a + b`, which the caller knows fits 256 bits.
fn add256(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    let mut carry = 0u128;
    for i in 0..4 {
        let v = a[i] as u128 + b[i] as u128 + carry;
        out[i] = v as u64;
        carry = v >> 64;
    }
    debug_assert_eq!(carry, 0);
    out
}

/// Reduces a 512-bit value modulo `l` by bitwise long division: slow,
/// simple and obviously correct — the oracle for [`mod_l_512`].
#[cfg(test)]
fn mod_l_512_bitwise(limbs: &[u64; 8]) -> [u64; 4] {
    let mut r = [0u64; 4];
    // Process bits MSB-first: r = (r << 1 | bit) mod l.
    for bit_index in (0..512).rev() {
        // Shift r left by one (r < l < 2^253, so no overflow).
        let mut carry = 0u64;
        for limb in r.iter_mut() {
            let new_carry = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = new_carry;
        }
        debug_assert_eq!(carry, 0);
        let bit = (limbs[bit_index / 64] >> (bit_index % 64)) & 1;
        r[0] |= bit;
        if geq256(&r, &L) {
            r = sub256(&r, &L);
        }
    }
    r
}

fn geq256(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

fn sub256(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    let mut borrow = false;
    for i in 0..4 {
        let (v1, b1) = a[i].overflowing_sub(b[i]);
        let (v2, b2) = v1.overflowing_sub(borrow as u64);
        out[i] = v2;
        borrow = b1 || b2;
    }
    debug_assert!(!borrow);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sc(n: u64) -> Scalar {
        Scalar([n, 0, 0, 0])
    }

    #[test]
    fn l_reduces_to_zero() {
        let mut wide = [0u8; 64];
        let mut l_bytes = [0u8; 32];
        for (i, limb) in L.iter().enumerate() {
            l_bytes[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
        }
        wide[..32].copy_from_slice(&l_bytes);
        assert_eq!(Scalar::from_bytes_wide(&wide), Scalar::ZERO);
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(sc(3).mul(sc(4)), sc(12));
        assert_eq!(sc(3).add(sc(4)), sc(7));
        assert_eq!(sc(5).mul_add(sc(6), sc(7)), sc(37));
    }

    #[test]
    fn add_wraps_mod_l() {
        // (l - 1) + 2 == 1 (mod l).
        let l_minus_1 = Scalar(sub256(&L, &[1, 0, 0, 0]));
        assert_eq!(l_minus_1.add(sc(2)), sc(1));
    }

    #[test]
    fn canonical_rejects_l() {
        let mut l_bytes = [0u8; 32];
        for (i, limb) in L.iter().enumerate() {
            l_bytes[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
        }
        assert!(Scalar::from_canonical_bytes(&l_bytes).is_none());
        let one = sc(1).to_bytes();
        assert_eq!(Scalar::from_canonical_bytes(&one), Some(sc(1)));
    }

    #[test]
    fn bytes_roundtrip() {
        let a = Scalar([0x1234, 0x5678, 0x9abc, 0x0def]);
        assert_eq!(Scalar::from_bytes(&a.to_bytes()), a);
    }

    /// `Σ dᵢ·2^(i·radix_bits)` in 320-bit two's complement, by Horner.
    fn value_of(digits: &[i8], radix_bits: u32) -> [u64; 5] {
        let mut acc = [0u64; 5];
        for d in digits.iter().rev() {
            let mut carry = 0u64;
            for limb in acc.iter_mut() {
                let next = *limb >> (64 - radix_bits);
                *limb = *limb << radix_bits | carry;
                carry = next;
            }
            // Add the sign-extended digit.
            let ext = if *d < 0 { u64::MAX } else { 0 };
            let mut c = 0u128;
            for (limb, a) in acc.iter_mut().zip([*d as i64 as u64, ext, ext, ext, ext]) {
                let v = *limb as u128 + a as u128 + c;
                *limb = v as u64;
                c = v >> 64;
            }
        }
        acc
    }

    fn limbs_of(bytes: &[u8; 32]) -> [u64; 5] {
        let mut limbs = [0u64; 5];
        for (limb, chunk) in limbs.iter_mut().zip(bytes.chunks_exact(8)) {
            *limb = u64::from_le_bytes(chunk.try_into().unwrap());
        }
        limbs
    }

    fn check_digits(bytes: &[u8; 32]) {
        let (digits, carry) = radix16(bytes);
        assert!(digits.iter().all(|d| (-8..8).contains(d)));
        let mut all = digits.to_vec();
        all.push(carry as i8); // 16^64 = 2^256
        assert_eq!(
            value_of(&all, 4),
            limbs_of(bytes),
            "radix-16 of {bytes:02x?}"
        );

        let naf = naf5(bytes);
        assert!(naf.iter().all(|d| *d == 0 || (d % 2 != 0 && d.abs() < 16)));
        for window in naf.windows(5) {
            assert!(window.iter().filter(|d| **d != 0).count() <= 1);
        }
        assert_eq!(value_of(&naf, 1), limbs_of(bytes), "NAF of {bytes:02x?}");
    }

    #[test]
    fn digit_strings_of_edge_values() {
        let mut top = [0u8; 32];
        top[31] = 0x80;
        let mut sevens = [0x77u8; 32];
        sevens[0] = 0x78;
        for bytes in [
            [0u8; 32],
            [0xff; 32],
            [0x88; 32],
            [0x0f; 32],
            [0xf0; 32],
            [0xaa; 32],
            top,
            sevens,
            Scalar(L).to_bytes(),
        ] {
            check_digits(&bytes);
        }
    }

    proptest! {
        /// Both digit strings spell the integer they were made from.
        #[test]
        fn digit_strings_spell_their_scalar(bytes in any::<[u8; 32]>()) {
            check_digits(&bytes);
        }

        /// Folding at bit 252 agrees with bitwise long division.
        #[test]
        fn folded_reduction_equals_long_division(
            bytes in any::<[u8; 64]>(),
            keep in 0usize..9,
        ) {
            let mut limbs = [0u64; 8];
            for (limb, chunk) in limbs.iter_mut().zip(bytes.chunks_exact(8)) {
                *limb = u64::from_le_bytes(chunk.try_into().unwrap());
            }
            // Short values, and ones with long runs of ones.
            for limb in limbs[keep.min(8)..].iter_mut() {
                *limb = 0;
            }
            prop_assert_eq!(mod_l_512(&limbs), mod_l_512_bitwise(&limbs));
            let ones = limbs.map(|l| l | 0xffff_ffff_0000_ffff);
            prop_assert_eq!(mod_l_512(&ones), mod_l_512_bitwise(&ones));
        }
    }

    #[test]
    fn folded_reduction_edges() {
        let l_wide = [L[0], L[1], L[2], L[3], 0, 0, 0, 0];
        let mut l_minus_1 = l_wide;
        l_minus_1[0] -= 1;
        let mut bit_252 = [0u64; 8];
        bit_252[3] = 1 << 60;
        for limbs in [
            [0u64; 8],
            [u64::MAX; 8],
            l_wide,
            l_minus_1,
            bit_252,
            [0, 0, 0, 0, 0, 0, 0, u64::MAX],
            [u64::MAX, u64::MAX, u64::MAX, (1 << 60) - 1, 0, 0, 0, 0],
        ] {
            assert_eq!(mod_l_512(&limbs), mod_l_512_bitwise(&limbs), "{limbs:x?}");
        }
        assert_eq!(mod_l_512(&l_wide), [0; 4]);
    }

    #[test]
    fn mul_commutes() {
        let a = Scalar([7, 8, 9, 0x0fff_ffff]);
        let b = Scalar([3, 1, 4, 0x0101_0101]);
        assert_eq!(a.mul(b), b.mul(a));
    }
}
