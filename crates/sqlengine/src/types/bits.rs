//! Fixed-length bit strings (PostgreSQL `bit(n)` style, `b'01'` literals).
//!
//! SolveDB+ uses bit strings for the `c_mask` column introduced by the
//! CDTE rewrite (paper §4.3, Table 5). Masks there are as wide as the
//! number of CDTEs with decision columns, so a 64-bit payload is ample;
//! the width is still tracked exactly so comparisons and display match
//! PostgreSQL semantics.

use crate::error::{Error, Result};
use std::fmt;

/// A bit string of up to 64 bits. Bit 0 of `bits` is the *rightmost*
/// character of the literal, so `b'10'` has `len = 2` and `bits = 0b10`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitString {
    len: u8,
    bits: u64,
}

impl BitString {
    pub fn new(len: u8, bits: u64) -> Result<Self> {
        if len > 64 {
            return Err(Error::eval("bit string longer than 64 bits"));
        }
        let mask = if len == 64 { u64::MAX } else { (1u64 << len) - 1 };
        Ok(BitString { len, bits: bits & mask })
    }

    /// Parse the body of a `b'...'` literal.
    pub fn parse(body: &str) -> Result<Self> {
        if body.len() > 64 {
            return Err(Error::eval("bit string longer than 64 bits"));
        }
        let mut bits = 0u64;
        for ch in body.chars() {
            bits <<= 1;
            match ch {
                '0' => {}
                '1' => bits |= 1,
                _ => return Err(Error::eval(format!("invalid bit string literal b'{body}'"))),
            }
        }
        Ok(BitString { len: body.len() as u8, bits })
    }

    /// A mask with exactly one bit set, `index` counted from the left of
    /// a string of width `len` (index 0 = leftmost = most significant).
    pub fn single(len: u8, index: u8) -> Result<Self> {
        if index >= len {
            return Err(Error::eval("bit index out of range"));
        }
        BitString::new(len, 1u64 << (len - 1 - index))
    }

    pub fn len(&self) -> u8 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn raw(&self) -> u64 {
        self.bits
    }

    pub fn is_zero(&self) -> bool {
        self.bits == 0
    }

    fn check_len(&self, other: &Self, op: &str) -> Result<()> {
        if self.len != other.len {
            return Err(Error::eval(format!(
                "cannot {op} bit strings of different sizes ({} vs {})",
                self.len, other.len
            )));
        }
        Ok(())
    }

    pub fn and(&self, other: &Self) -> Result<Self> {
        self.check_len(other, "AND")?;
        Ok(BitString { len: self.len, bits: self.bits & other.bits })
    }

    pub fn or(&self, other: &Self) -> Result<Self> {
        self.check_len(other, "OR")?;
        Ok(BitString { len: self.len, bits: self.bits | other.bits })
    }

    pub fn xor(&self, other: &Self) -> Result<Self> {
        self.check_len(other, "XOR")?;
        Ok(BitString { len: self.len, bits: self.bits ^ other.bits })
    }

    pub fn not(&self) -> Self {
        let mask = if self.len == 64 { u64::MAX } else { (1u64 << self.len) - 1 };
        BitString { len: self.len, bits: !self.bits & mask }
    }
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.len).rev() {
            write!(f, "{}", (self.bits >> i) & 1)?;
        }
        Ok(())
    }
}

/// A growable bitmap, used by the columnar executor as a per-column
/// validity mask (bit set = value present, bit clear = SQL NULL).
/// Unlike [`BitString`] it has no 64-bit cap: bits are stored in
/// little-endian order across `u64` blocks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    blocks: Vec<u64>,
    len: usize,
}

impl Bitmap {
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// A bitmap of `len` bits, all set (`value = true`) or all clear.
    pub fn filled(len: usize, value: bool) -> Bitmap {
        let nblocks = len.div_ceil(64);
        let mut blocks = vec![if value { u64::MAX } else { 0 }; nblocks];
        if value {
            if let Some(last) = blocks.last_mut() {
                let tail = len % 64;
                if tail != 0 {
                    *last = (1u64 << tail) - 1;
                }
            }
        }
        Bitmap { blocks, len }
    }

    pub fn with_capacity(bits: usize) -> Bitmap {
        Bitmap { blocks: Vec::with_capacity(bits.div_ceil(64)), len: 0 }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn push(&mut self, bit: bool) {
        let block = self.len / 64;
        if block == self.blocks.len() {
            self.blocks.push(0);
        }
        if bit {
            self.blocks[block] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Bits past `len` read as `false`.
    pub fn get(&self, index: usize) -> bool {
        if index >= self.len {
            return false;
        }
        (self.blocks[index / 64] >> (index % 64)) & 1 == 1
    }

    pub fn set(&mut self, index: usize, bit: bool) {
        if index >= self.len {
            return;
        }
        let mask = 1u64 << (index % 64);
        if bit {
            self.blocks[index / 64] |= mask;
        } else {
            self.blocks[index / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// True when every bit in the bitmap is set.
    pub fn all_set(&self) -> bool {
        self.count_ones() == self.len
    }

    /// The bits set in both `self` and `other`, of equal length, a word
    /// at a time.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        debug_assert_eq!(self.len, other.len);
        let blocks = self.blocks.iter().zip(&other.blocks).map(|(a, b)| a & b).collect();
        Bitmap { blocks, len: self.len }
    }

    /// Append every bit of `other`, a word at a time.
    pub fn extend(&mut self, other: &Bitmap) {
        let shift = self.len % 64;
        if shift == 0 {
            self.blocks.extend_from_slice(&other.blocks);
        } else {
            // Bits past `len` are clear in both, so each incoming word
            // splits across the open block and the one after it.
            for &word in &other.blocks {
                let open = self.blocks.len() - 1;
                self.blocks[open] |= word << shift;
                self.blocks.push(word >> (64 - shift));
            }
        }
        self.len += other.len;
        self.blocks.truncate(self.len.div_ceil(64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["0", "1", "01", "10", "1101", "0000"] {
            assert_eq!(BitString::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn paper_c_mask_semantics() {
        // (c_mask & b'10') <> b'00'  — row belongs to CDTE `p`.
        let row_p = BitString::parse("11").unwrap();
        let row_e = BitString::parse("01").unwrap();
        let sel_p = BitString::parse("10").unwrap();
        assert!(!row_p.and(&sel_p).unwrap().is_zero());
        assert!(row_e.and(&sel_p).unwrap().is_zero());
    }

    #[test]
    fn bitwise_ops() {
        let a = BitString::parse("1100").unwrap();
        let b = BitString::parse("1010").unwrap();
        assert_eq!(a.and(&b).unwrap().to_string(), "1000");
        assert_eq!(a.or(&b).unwrap().to_string(), "1110");
        assert_eq!(a.xor(&b).unwrap().to_string(), "0110");
        assert_eq!(a.not().to_string(), "0011");
    }

    #[test]
    fn length_mismatch_is_error() {
        let a = BitString::parse("11").unwrap();
        let b = BitString::parse("111").unwrap();
        assert!(a.and(&b).is_err());
    }

    #[test]
    fn single_bit_masks() {
        assert_eq!(BitString::single(2, 0).unwrap().to_string(), "10");
        assert_eq!(BitString::single(2, 1).unwrap().to_string(), "01");
        assert_eq!(BitString::single(4, 2).unwrap().to_string(), "0010");
        assert!(BitString::single(2, 2).is_err());
    }

    #[test]
    fn reject_invalid_literals() {
        assert!(BitString::parse("012").is_err());
        assert!(BitString::parse(&"1".repeat(65)).is_err());
    }

    #[test]
    fn bitmap_push_get_roundtrip() {
        let mut bm = Bitmap::new();
        for i in 0..200 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 200);
        for i in 0..200 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(bm.count_ones(), (0..200).filter(|i| i % 3 == 0).count());
        assert!(!bm.get(200));
    }

    #[test]
    fn bitmap_filled_and_set() {
        let mut bm = Bitmap::filled(100, true);
        assert_eq!(bm.len(), 100);
        assert_eq!(bm.count_ones(), 100);
        assert!(bm.all_set());
        bm.set(64, false);
        assert!(!bm.get(64));
        assert!(!bm.all_set());
        assert_eq!(bm.count_ones(), 99);
        let empty = Bitmap::filled(70, false);
        assert_eq!(empty.count_ones(), 0);
        assert!(!empty.get(69) && !empty.get(1000));
    }

    #[test]
    fn bitmap_and_is_word_wise() {
        let mut a = Bitmap::new();
        let mut b = Bitmap::new();
        for i in 0..130 {
            a.push(i % 2 == 0);
            b.push(i % 3 == 0);
        }
        let both = a.and(&b);
        assert_eq!(both.len(), 130);
        assert!((0..130).all(|i| both.get(i) == (i % 6 == 0)));
        assert!(!both.get(130));
    }
}
