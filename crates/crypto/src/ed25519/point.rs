//! Edwards curve points for Ed25519, and the two scalar multiplications
//! signatures are made of.
//!
//! **Representations.** [`Point`] is extended twisted-Edwards coordinates
//! `(X : Y : Z : T)` with `x = X/Z`, `y = Y/Z`, `xy = T/Z`. Three private
//! forms exist only to save multiplications between steps:
//!
//! - `Projective` `(X : Y : Z)`: all a doubling reads;
//! - `Completed` `((X : Z), (Y : T))`: what a doubling or an addition
//!   produces before its last multiplications — 3 of them to continue
//!   doubling, 4 when the next step is an addition and needs `T`;
//! - [`Niels`] `(Y+X, Y−X, Z, 2dT)`: a point stored to be *added*, with the
//!   sums and the `2d` product the addition law needs already made.
//!
//! The addition law is the complete unified formula for `a = -1` curves
//! (8 multiplications against a stored `Niels`), valid for every pair of
//! curve points including small-order ones; doubling is the dedicated
//! formula (4 squarings + 3 or 4 multiplications).
//!
//! **Tables.** A [`NafTable`] holds the odd multiples `P, 3P, …, 15P` of one
//! point, which is what a width-5 signed-window (wNAF) scalar needs:
//! [`Point::multiscalar_mul`] walks the digits of all its scalars over one
//! shared doubling chain (Straus), adding or subtracting a table entry at
//! the ~1 position in 6 where a digit is non-zero. Committee keys keep their
//! table for as long as the committee lives (`PreparedKey` in
//! [`crate::keys`]), and the base point's is a static
//! ([`NafTable::base`]): in a verification `B` is one more term of the
//! shared chain, ~43 additions. Where `B` is the *only* term — signing, key
//! derivation — there is no chain to share, and a bigger static table,
//! built on first use, removes it: `1..8` times `256^j · B` for `j < 32`, so
//! that [`Point::mul_base`] is 64 table additions and 4 doublings for any
//! scalar (signed radix-16 digits).
//!
//! **Nothing here is constant-time**: digits select table entries by index
//! and zero digits are skipped, for secret scalars too.

use super::field::Fe;
use super::scalar::{naf5, radix16};
use std::sync::LazyLock;

/// A point on the Ed25519 curve in extended coordinates.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// `(X : Y : Z)`: a point about to be doubled.
struct Projective {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// `((X : Z), (Y : T))`, i.e. `x = X/Z`, `y = Y/T`: the unfinished result
/// of a doubling or an addition.
struct Completed {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point prepared as the second operand of an addition.
#[derive(Clone, Copy, Debug)]
pub struct Niels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

/// The odd multiples `[P, 3P, 5P, …, 15P]` of one point: the lookup table
/// of a width-5 wNAF scalar multiplication.
#[derive(Clone, Debug)]
pub struct NafTable([Niels; 8]);

/// `rows[j][m - 1] = m · 256^j · B` for `m` in `1..=8`, and `2^256 · B` for
/// the one scalar bit signed radix-16 digits can carry out.
struct BaseTable {
    rows: [[Niels; 8]; 32],
    overflow: Niels,
}

static BASE_TABLE: LazyLock<Box<BaseTable>> = LazyLock::new(|| {
    let mut p = Point::base();
    let mut rows = [[Point::identity().to_niels(); 8]; 32];
    for row in rows.iter_mut() {
        let mut multiple = p;
        for entry in row.iter_mut() {
            *entry = multiple.to_niels();
            multiple = multiple.add(&p);
        }
        p = p.double_n(8);
    }
    Box::new(BaseTable {
        rows,
        overflow: p.to_niels(),
    })
});

impl Projective {
    /// Doubling (`dbl-2008-hwcd` with `a = -1`, both `F` and `H` negated,
    /// which names the same projective point): 4 squarings.
    #[inline(always)]
    fn double(&self) -> Completed {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let xy2 = self.x.add(self.y).square();
        let yy_plus_xx = yy.add(xx);
        let yy_minus_xx = yy.sub(xx);
        Completed {
            x: xy2.sub(yy_plus_xx),
            y: yy_plus_xx,
            z: yy_minus_xx,
            t: zz.add(zz).sub(yy_minus_xx),
        }
    }
}

impl Completed {
    /// 3 multiplications: enough to double again.
    #[inline(always)]
    fn to_projective(&self) -> Projective {
        Projective {
            x: self.x.mul(self.t),
            y: self.y.mul(self.z),
            z: self.z.mul(self.t),
        }
    }

    /// 4 multiplications: the full point.
    #[inline(always)]
    fn to_extended(&self) -> Point {
        Point {
            x: self.x.mul(self.t),
            y: self.y.mul(self.z),
            z: self.z.mul(self.t),
            t: self.x.mul(self.y),
        }
    }
}

impl NafTable {
    /// The table of the base point `B`, built on first use.
    pub fn base() -> &'static NafTable {
        static BASE: LazyLock<NafTable> = LazyLock::new(|| NafTable::new(&Point::base()));
        &BASE
    }

    /// Builds the table of `p`: one doubling and seven additions.
    pub fn new(p: &Point) -> NafTable {
        let twice = p.double().to_niels();
        let mut odd = *p;
        let mut table = [p.to_niels(); 8];
        for entry in table.iter_mut().skip(1) {
            odd = odd.add_niels(&twice, false).to_extended();
            *entry = odd.to_niels();
        }
        NafTable(table)
    }

    /// The entry a non-zero wNAF digit (odd, `|digit| < 16`) selects, to be
    /// added if the digit is positive and subtracted if it is negative.
    #[inline(always)]
    fn entry(&self, digit: i8) -> &Niels {
        &self.0[(digit.unsigned_abs() / 2) as usize]
    }
}

impl Point {
    /// The identity element (neutral point).
    pub fn identity() -> Point {
        Point {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The standard base point `B` (`y = 4/5`, `x` even, per RFC 8032).
    pub fn base() -> Point {
        static BASE: LazyLock<Point> = LazyLock::new(|| {
            let mut compressed = [0x66u8; 32];
            compressed[0] = 0x58;
            Point::decompress(&compressed).expect("the base point constant decompresses")
        });
        *BASE
    }

    fn to_niels(self) -> Niels {
        Niels {
            y_plus_x: self.y.add(self.x),
            y_minus_x: self.y.sub(self.x),
            z: self.z,
            t2d: self.t.mul(Fe::D2),
        }
    }

    /// The complete unified addition (`add-2008-hwcd-3`), 4 of its 8
    /// multiplications; the other 4 finish the [`Completed`] result.
    ///
    /// With `negate` it subtracts: `-(x, y) = (-x, y)` swaps the stored sum
    /// and difference and flips the sign of `2dT`, which here only swaps
    /// roles — no field negation is computed.
    #[inline(always)]
    fn add_niels(&self, other: &Niels, negate: bool) -> Completed {
        let (plus, minus) = if negate {
            (other.y_minus_x, other.y_plus_x)
        } else {
            (other.y_plus_x, other.y_minus_x)
        };
        let a = self.y.sub(self.x).mul(minus);
        let b = self.y.add(self.x).mul(plus);
        let c = self.t.mul(other.t2d);
        let zz = self.z.mul(other.z);
        let d = zz.add(zz);
        let (d_plus_c, d_minus_c) = (d.add(c), d.sub(c));
        Completed {
            x: b.sub(a),
            y: b.add(a),
            z: if negate { d_minus_c } else { d_plus_c },
            t: if negate { d_plus_c } else { d_minus_c },
        }
    }

    /// Point addition (complete formula, works for doubling too).
    pub fn add(&self, other: &Point) -> Point {
        self.add_niels(&other.to_niels(), false).to_extended()
    }

    fn as_projective(&self) -> Projective {
        Projective {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    /// Point doubling.
    pub fn double(&self) -> Point {
        self.as_projective().double().to_extended()
    }

    /// `2^n · self` for `n >= 1`; only the last doubling computes `T`.
    fn double_n(&self, n: u32) -> Point {
        let mut p = self.as_projective();
        for _ in 1..n {
            p = p.double().to_projective();
        }
        p.double().to_extended()
    }

    /// Negation: `(x, y) -> (-x, y)`.
    pub fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// `scalar · B` for any 256-bit little-endian `scalar`, from the
    /// precomputed base-point table: the odd radix-16 digits first, times
    /// 16, then the even ones.
    pub fn mul_base(scalar: &[u8; 32]) -> Point {
        let table = &**BASE_TABLE;
        let (digits, overflow) = radix16(scalar);
        let mut acc = Point::identity();
        let lookup = |acc: Point, i: usize| -> Point {
            let digit = digits[i];
            if digit == 0 {
                return acc;
            }
            let entry = &table.rows[i / 2][(digit.unsigned_abs() - 1) as usize];
            acc.add_niels(entry, digit < 0).to_extended()
        };
        for i in (1..64).step_by(2) {
            acc = lookup(acc, i);
        }
        acc = acc.double_n(4);
        for i in (0..64).step_by(2) {
            acc = lookup(acc, i);
        }
        if overflow {
            acc = acc.add_niels(&table.overflow, false).to_extended();
        }
        acc
    }

    /// Computes `Σ scalarᵢ · Pᵢ` over one shared doubling chain, each point
    /// given as its [`NafTable`].
    ///
    /// Straus' interleaved method over width-5 wNAF digits: one MSB-first
    /// pass performs one doubling per bit — shared by every term, and
    /// stopping short of `T` when no addition follows — plus one table
    /// addition or subtraction per non-zero digit, ~43 per 253-bit scalar.
    ///
    /// Scalars are 32 little-endian bytes; all 256 bits are processed.
    pub fn multiscalar_mul(terms: &[(&[u8; 32], &NafTable)]) -> Point {
        let nafs: Vec<[i8; 257]> = terms.iter().map(|(scalar, _)| naf5(scalar)).collect();
        let top = (0..257).rev().find(|i| nafs.iter().any(|naf| naf[*i] != 0));
        let Some(top) = top else {
            return Point::identity();
        };
        // The identity, unfinished: x = 0/1, y = 1/1.
        let mut sum = Completed {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ONE,
        };
        for i in (0..=top).rev() {
            sum = sum.to_projective().double();
            for (naf, (_, table)) in nafs.iter().zip(terms) {
                if naf[i] != 0 {
                    sum = sum.to_extended().add_niels(table.entry(naf[i]), naf[i] < 0);
                }
            }
        }
        sum.to_extended()
    }

    /// Compresses to the 32-byte RFC 8032 encoding: `y` with the sign of `x`
    /// in the top bit.
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompresses an RFC 8032 encoded point; `None` if invalid.
    pub fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let sign = (bytes[31] >> 7) & 1;
        let y = Fe::from_bytes(bytes);
        // x^2 = (y^2 - 1) / (d y^2 + 1) = u / v.
        let yy = y.square();
        let u = yy.sub(Fe::ONE);
        let v = Fe::D.mul(yy).add(Fe::ONE);
        // Candidate root: x = u v^3 (u v^7)^((p-5)/8).
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut x = u.mul(v3).mul(u.mul(v7).pow_p58());
        let vxx = v.mul(x.square());
        if vxx.sub(u).is_zero() {
            // x is already a root.
        } else if vxx.add(u).is_zero() {
            x = x.mul(Fe::SQRT_M1);
        } else {
            return None;
        }
        if x.is_zero() && sign == 1 {
            // Negative zero is not a valid encoding.
            return None;
        }
        if x.is_negative() != (sign == 1) {
            x = x.neg();
        }
        Some(Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        })
    }

    /// Equality in the projective sense.
    pub fn eq_point(&self, other: &Point) -> bool {
        // x1/z1 == x2/z2 and y1/z1 == y2/z2, cross-multiplied.
        self.x.mul(other.z).equals(other.x.mul(self.z))
            && self.y.mul(other.z).equals(other.y.mul(self.z))
    }

    /// True if this is the identity element.
    pub fn is_identity(&self) -> bool {
        self.x.is_zero() && self.y.equals(self.z)
    }

    /// Doubling as the parent commit did it: the unified addition applied
    /// to the point itself. The oracle [`Point::double`] is tested against.
    #[cfg(test)]
    pub(crate) fn double_by_add(&self) -> Point {
        self.add(self)
    }

    /// Scalar multiplication by double-and-add, MSB first, over all 256
    /// bits, doubling by addition: the oracle [`Point::mul_base`] and
    /// [`Point::multiscalar_mul`] are tested against.
    #[cfg(test)]
    pub(crate) fn mul(&self, scalar: &[u8; 32]) -> Point {
        let mut acc = Point::identity();
        for byte in scalar.iter().rev() {
            for bit in (0..8).rev() {
                acc = acc.double_by_add();
                if (byte >> bit) & 1 == 1 {
                    acc = acc.add(self);
                }
            }
        }
        acc
    }
}

/// The encoding of a point of order exactly 8 (a generator of the torsion
/// subgroup): what small-order and mixed-order test points are made of.
#[cfg(test)]
pub(crate) const TORSION: [u8; 32] = [
    0xc7, 0x17, 0x6a, 0x70, 0x3d, 0x4d, 0xd8, 0x4f, 0xba, 0x3c, 0x0b, 0x76, 0x0d, 0x10, 0x67, 0x0f,
    0x2a, 0x20, 0x53, 0xfa, 0x2c, 0x39, 0xcc, 0xc6, 0x4e, 0xc7, 0xfd, 0x77, 0x92, 0xac, 0x03, 0x7a,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ed25519::scalar::L;
    use proptest::prelude::*;

    fn bytes_of(limbs: [u64; 4]) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (chunk, limb) in out.chunks_exact_mut(8).zip(limbs) {
            chunk.copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// A point with no special structure: `scalar · B` by the oracle.
    fn some_point(scalar: &[u8; 32]) -> Point {
        Point::base().mul(scalar)
    }

    fn torsion_point() -> Point {
        Point::decompress(&TORSION).expect("a small-order point")
    }

    #[test]
    fn base_point_roundtrips() {
        let b = Point::base();
        let c = b.compress();
        let b2 = Point::decompress(&c).expect("valid");
        assert!(b.eq_point(&b2));
    }

    #[test]
    fn identity_is_neutral() {
        let b = Point::base();
        assert!(b.add(&Point::identity()).eq_point(&b));
        assert!(Point::identity().add(&b).eq_point(&b));
        assert!(Point::identity().double().is_identity());
    }

    #[test]
    fn add_is_commutative_and_associative() {
        let b = Point::base();
        let b2 = b.double();
        let b3 = b2.add(&b);
        assert!(b.add(&b2).eq_point(&b2.add(&b)));
        assert!(b3.add(&b2).eq_point(&b2.add(&b3)));
        assert!(b.add(&b2).add(&b3).eq_point(&b.add(&b2.add(&b3))));
    }

    #[test]
    fn neg_cancels() {
        let b = Point::base();
        assert!(b.add(&b.neg()).is_identity());
    }

    #[test]
    fn torsion_point_has_order_eight() {
        let t = torsion_point();
        assert!(!t.double_n(2).is_identity());
        assert!(t.double_n(3).is_identity());
        // The dedicated doubling is valid on small-order points too.
        assert!(t.double().eq_point(&t.double_by_add()));
        assert!(t.double().double().eq_point(&t.double_n(2)));
    }

    #[test]
    fn mul_base_edge_scalars_match_the_oracle() {
        let b = Point::base();
        let mut one = [0u8; 32];
        one[0] = 1;
        let mut l_minus_1 = bytes_of(L);
        l_minus_1[0] -= 1;
        let mut below_2_255 = [0xffu8; 32];
        below_2_255[31] = 0x7f;
        let mut sevens = [0x77u8; 32];
        sevens[0] = 0x78; // a run of carries that stops
        for scalar in [
            [0u8; 32],
            one,
            bytes_of(L),
            l_minus_1,
            below_2_255,
            [0xffu8; 32], // carries out of the top digit
            [0x88u8; 32], // every digit recentres to -8
            sevens,
            [0x0fu8; 32],
            [0xf0u8; 32],
        ] {
            assert!(
                Point::mul_base(&scalar).eq_point(&b.mul(&scalar)),
                "scalar {scalar:02x?}"
            );
        }
        assert!(Point::mul_base(&[0u8; 32]).is_identity());
        assert!(Point::mul_base(&bytes_of(L)).is_identity());
        assert!(Point::mul_base(&l_minus_1).eq_point(&b.neg()));
    }

    #[test]
    fn multiscalar_empty_and_zero() {
        assert!(Point::multiscalar_mul(&[]).is_identity());
        let table = NafTable::new(&Point::base());
        assert!(Point::multiscalar_mul(&[(&[0u8; 32], &table)]).is_identity());
    }

    #[test]
    fn naf_table_holds_the_odd_multiples() {
        let p = some_point(&[0x5au8; 32]);
        let table = NafTable::new(&p);
        for (i, entry) in table.0.iter().enumerate() {
            let mut scalar = [0u8; 32];
            scalar[0] = 2 * i as u8 + 1;
            let expect = p.mul(&scalar);
            let got = Point::identity().add_niels(entry, false).to_extended();
            assert!(got.eq_point(&expect), "entry {i}");
            let negated = Point::identity().add_niels(entry, true).to_extended();
            assert!(negated.eq_point(&expect.neg()), "subtracted entry {i}");
        }
    }

    #[test]
    fn decompress_rejects_garbage() {
        let mut rejected = 0;
        for i in 0..16u8 {
            let mut bytes = [0u8; 32];
            bytes[0] = i;
            bytes[5] = 0xaa;
            if Point::decompress(&bytes).is_none() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "some candidate encodings must be invalid");
    }

    #[test]
    fn decompress_edge_encodings() {
        // y = 1 is the identity; with the sign bit it would be "-0".
        let mut one = [0u8; 32];
        one[0] = 1;
        assert!(Point::decompress(&one).expect("identity").is_identity());
        one[31] |= 0x80;
        assert!(Point::decompress(&one).is_none(), "negative zero");
        // y = p + 1 is a non-canonical spelling of y = 1: accepted.
        let mut p_plus_1 = [0xffu8; 32];
        p_plus_1[0] = 0xee;
        p_plus_1[31] = 0x7f;
        assert!(Point::decompress(&p_plus_1)
            .expect("non-canonical y")
            .is_identity());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The dedicated doubling is the unified addition of a point to
        /// itself, on prime-order and on mixed-order points.
        #[test]
        fn double_equals_add_self(scalar in any::<[u8; 32]>(), n in 1u32..10) {
            let p = some_point(&scalar);
            prop_assert!(p.double().eq_point(&p.double_by_add()));
            let mixed = p.add(&torsion_point());
            prop_assert!(mixed.double().eq_point(&mixed.double_by_add()));
            let mut expect = p;
            for _ in 0..n {
                expect = expect.double_by_add();
            }
            prop_assert!(p.double_n(n).eq_point(&expect));
        }

        /// The fixed-base table agrees with bit-at-a-time multiplication of
        /// `B` on every 256-bit scalar.
        #[test]
        fn mul_base_equals_generic_mul(scalar in any::<[u8; 32]>()) {
            prop_assert!(Point::mul_base(&scalar).eq_point(&Point::base().mul(&scalar)));
        }

        /// wNAF Straus agrees with the sum of separate bit-at-a-time
        /// multiplications, on full-width scalars and mixed-order points.
        #[test]
        fn multiscalar_equals_sum_of_muls(
            terms in proptest::collection::vec((any::<[u8; 32]>(), any::<[u8; 32]>()), 1..4),
            short in 0usize..32,
        ) {
            let mut terms = terms;
            // One scalar with high bytes zeroed, so term lengths differ.
            for b in terms[0].0[short..].iter_mut() {
                *b = 0;
            }
            let mut points: Vec<Point> = terms.iter().map(|(_, seed)| some_point(seed)).collect();
            points[0] = points[0].add(&torsion_point());
            let tables: Vec<NafTable> = points.iter().map(NafTable::new).collect();
            let mut expect = Point::identity();
            for ((scalar, _), p) in terms.iter().zip(&points) {
                expect = expect.add(&p.mul(scalar));
            }
            let refs: Vec<(&[u8; 32], &NafTable)> =
                terms.iter().map(|(s, _)| s).zip(&tables).collect();
            prop_assert!(Point::multiscalar_mul(&refs).eq_point(&expect));
        }
    }
}
