//! Short sequences stored in place: a transaction instance's slot binding,
//! its bound constants and its name.
//!
//! A generated transaction binds a handful of items and constants to a
//! shared template (see [`Transaction`](crate::Transaction)); storing them
//! inline, like [`VarSet`](crate::VarSet) stores small footprints, keeps
//! an instance free of heap blocks, so generating, copying and dropping it
//! allocates nothing.

use std::fmt;

/// Entries an [`Inline`] holds without a heap allocation.
const INLINE: usize = 7;

/// A sequence of up to seven `Copy` values stored in place, spilling to a
/// boxed slice beyond that. Inline exactly when it has at most seven
/// entries; equality compares entries, not storage.
#[derive(Clone)]
pub(crate) enum Inline<T: Copy + Default> {
    /// The entries are `items[..len]`.
    Inline { len: u8, items: [T; INLINE] },
    /// More than [`INLINE`] entries.
    Spilled(Box<[T]>),
}

impl<T: Copy + Default> Inline<T> {
    /// A copy of `entries`.
    pub(crate) fn from_slice(entries: &[T]) -> Self {
        if entries.len() > INLINE {
            return Inline::Spilled(entries.into());
        }
        let mut items = [T::default(); INLINE];
        items[..entries.len()].copy_from_slice(entries);
        Inline::Inline { len: entries.len() as u8, items }
    }

    /// The entries, in order.
    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            Inline::Inline { len, items } => &items[..*len as usize],
            Inline::Spilled(entries) => entries,
        }
    }
}

impl<T: Copy + Default> From<Vec<T>> for Inline<T> {
    fn from(entries: Vec<T>) -> Self {
        if entries.len() > INLINE {
            Inline::Spilled(entries.into_boxed_slice())
        } else {
            Inline::from_slice(&entries)
        }
    }
}

impl<T: Copy + Default + PartialEq> PartialEq for Inline<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + fmt::Debug> fmt::Debug for Inline<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Bytes a [`TxnName`] holds without a heap allocation: a two-letter
/// prefix and any `u64` counter fit.
const NAME_INLINE: usize = 22;

/// A transaction's human-readable name (e.g. `Tm12`), stored in place
/// when it is at most 22 bytes long and on the heap beyond that.
///
/// [`TxnName::numbered`] writes a prefix and a counter straight into the
/// inline buffer, so generators name every transaction without a
/// `format!`.
///
/// # Example
///
/// ```rust
/// use histmerge_txn::TxnName;
///
/// assert_eq!(TxnName::numbered("Tm", 12).as_str(), "Tm12");
/// assert_eq!(TxnName::new("deposit").as_str(), "deposit");
/// ```
#[derive(Clone)]
pub struct TxnName(NameRepr);

#[derive(Clone)]
enum NameRepr {
    /// The name is `bytes[..len]`, valid UTF-8.
    Inline { len: u8, bytes: [u8; NAME_INLINE] },
    /// Longer than [`NAME_INLINE`] bytes.
    Heap(Box<str>),
}

impl TxnName {
    /// A copy of `name`.
    pub fn new(name: &str) -> Self {
        let mut out = TxnName::empty();
        out.push_str(name);
        out
    }

    /// `prefix` followed by the decimal digits of `n` — the same text as
    /// `format!("{prefix}{n}")`.
    pub fn numbered(prefix: &str, n: u64) -> Self {
        let mut out = TxnName::empty();
        out.push_str(prefix);
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = n;
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
        out
    }

    /// The name as text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            NameRepr::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..*len as usize]).expect("built from whole strs")
            }
            NameRepr::Heap(name) => name,
        }
    }

    fn empty() -> Self {
        TxnName(NameRepr::Inline { len: 0, bytes: [0; NAME_INLINE] })
    }

    /// Appends `s`, moving to the heap once the inline buffer is full.
    fn push_str(&mut self, s: &str) {
        match &mut self.0 {
            NameRepr::Inline { len, bytes } if *len as usize + s.len() <= NAME_INLINE => {
                let at = *len as usize;
                bytes[at..at + s.len()].copy_from_slice(s.as_bytes());
                *len += s.len() as u8;
            }
            NameRepr::Inline { .. } => {
                let joined = [self.as_str(), s].concat();
                self.0 = NameRepr::Heap(joined.into_boxed_str());
            }
            NameRepr::Heap(name) => {
                *name = [&**name, s].concat().into_boxed_str();
            }
        }
    }
}

impl From<&str> for TxnName {
    fn from(name: &str) -> Self {
        TxnName::new(name)
    }
}

impl From<String> for TxnName {
    /// Keeps a long name's buffer instead of copying it.
    fn from(name: String) -> Self {
        if name.len() <= NAME_INLINE {
            TxnName::new(&name)
        } else {
            TxnName(NameRepr::Heap(name.into_boxed_str()))
        }
    }
}

impl PartialEq for TxnName {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for TxnName {}

impl fmt::Debug for TxnName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for TxnName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_spills_past_seven_entries() {
        let small = Inline::from_slice(&[1i64, 2, 3]);
        assert!(matches!(small, Inline::Inline { len: 3, .. }));
        assert_eq!(small.as_slice(), &[1, 2, 3]);
        let big: Inline<i64> = (0..9).collect::<Vec<_>>().into();
        assert!(matches!(big, Inline::Spilled(_)));
        assert_eq!(big.as_slice().len(), 9);
        assert_eq!(Inline::<i64>::from_slice(&[]).as_slice(), &[] as &[i64]);
        assert_eq!(Inline::from(vec![4i64, 5]), Inline::from_slice(&[4, 5]));
        assert_eq!(format!("{small:?}"), "[1, 2, 3]");
    }

    #[test]
    fn names_match_format() {
        for (prefix, n) in [("Tm", 0u64), ("Tb", 7), ("m", 1906), ("Tm", u64::MAX)] {
            let name = TxnName::numbered(prefix, n);
            assert_eq!(name.as_str(), format!("{prefix}{n}"));
            assert!(matches!(name.0, NameRepr::Inline { .. }), "{name} stays inline");
        }
        let long = "a-rather-long-transaction-name";
        let name = TxnName::new(long);
        assert!(matches!(name.0, NameRepr::Heap(_)));
        assert_eq!(name.as_str(), long);
        assert_eq!(TxnName::numbered("x".repeat(21).as_str(), 42).as_str(), "x".repeat(21) + "42");
        assert_eq!(format!("{:?}", TxnName::new("Tm1")), "\"Tm1\"");
        assert_eq!(TxnName::new("Tm1"), TxnName::numbered("Tm", 1));
        assert_eq!(TxnName::from(long.to_string()).as_str(), long);
        assert_eq!(TxnName::from("Tm1".to_string()), TxnName::from("Tm1"));
    }
}
