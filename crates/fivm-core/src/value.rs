//! Dynamically-typed key values.
//!
//! Keys in F-IVM relations are tuples of data values (paper §2). The
//! engine is schema-generic, so values are a small tagged union. Doubles
//! are compared and hashed by their bit pattern (with `-0.0` normalised to
//! `0.0`), which gives `Value` full `Eq + Hash + Ord` as required for hash
//! keys and deterministic test output.
//!
//! # Why `Sym(u32)` and not `Str(Arc<str>)`
//!
//! `Value` is load-bearing for every probe, route and merge in the
//! delta-propagation hot path; its widest variant sets the size of the
//! whole union and of every inline tuple built from it. A string variant
//! carrying `Arc<str>` is a 16-byte fat pointer that inflates `Value` to
//! 24 bytes (and the inline `[Value; 3]` tuple to 72), drags content
//! hashing into every probe-key construction, and puts refcount traffic
//! — atomic — on every clone. Strings are therefore **interned at load time** into the
//! catalog-owned [`crate::schema::SymbolTable`] and carried as
//! [`Value::Sym`], a dense `u32` id:
//!
//! * `size_of::<Value>() == 16` (statically asserted below), so the
//!   inline 3-tuple is 48 bytes of values instead of 72;
//! * equality, ordering and hashing of string-valued keys are pure
//!   integer ops — interning maps equal strings to equal ids;
//! * cloning a symbol copies 4 bytes; nothing allocates and no refcount
//!   moves in the steady state.
//!
//! **`Sym` orders by intern id**, not lexicographically: the hot path
//! only needs a total, deterministic order (hash-map iteration
//! canonicalization, sort/merge deduplication), and the id order is
//! exactly as total and deterministic as the lexicographic one while
//! costing one integer compare. Display and tests that want dictionary
//! order resolve through the catalog first — see [`Value::cmp_resolved`]
//! and [`Value::render`]. Symbol ids are only comparable within the
//! [`crate::Catalog`] (symbol table) that issued them.

use crate::schema::Catalog;
use std::fmt;

/// A single data value in the key space.
#[derive(Clone, Debug)]
pub enum Value {
    /// 64-bit integer (ids, dates, numeric codes, …).
    Int(i64),
    /// 64-bit float (measurements, prices, …).
    Double(f64),
    /// An interned string: a dense id issued by the catalog-owned
    /// [`crate::schema::SymbolTable`]. Compares, orders and hashes by
    /// id (see the [module docs](self)).
    Sym(u32),
}

/// The whole point of symbol interning: the widest variant is 8 bytes,
/// so the union is tag + payload = 16. A future variant that silently
/// re-inflates the hot path fails this assertion at compile time.
const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl Value {
    /// The integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric interpretation: integers widen to doubles.
    ///
    /// This is what numeric lifting functions use — e.g. `g_B(x) = x`
    /// in the paper’s Example 2.3 lifts both int and double columns into
    /// an arithmetic ring. Symbols are *not* numbers: summing a
    /// categorical column is a semantic error, so this returns `None`
    /// for [`Value::Sym`] (see [`Value::feature_code`] for the ML
    /// featurization that does accept symbols).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            Value::Sym(_) => None,
        }
    }

    /// The symbol id, if this is a [`Value::Sym`].
    pub fn as_sym(&self) -> Option<u32> {
        match self {
            Value::Sym(s) => Some(*s),
            _ => None,
        }
    }

    /// Numeric featurization for ML lifting (cofactor / degree rings):
    /// numbers map to themselves, symbols to their intern id — the
    /// categorical-code encoding the regression workloads already used
    /// when categories were generated as integer codes. Total: never
    /// fails, unlike [`Value::as_f64`].
    #[inline]
    pub fn feature_code(&self) -> f64 {
        match self {
            Value::Int(i) => *i as f64,
            Value::Double(d) => *d,
            Value::Sym(s) => f64::from(*s),
        }
    }

    /// Resolve this value for display through `catalog`: symbols render
    /// as their interned string, with a stable `sym#<id>` fallback for
    /// ids the catalog does not know (e.g. values displayed against the
    /// wrong catalog in a test failure message).
    pub fn render(&self, catalog: &Catalog) -> String {
        match self {
            Value::Sym(s) => match catalog.resolve_sym(*s) {
                Some(name) => name.to_string(),
                None => format!("sym#{s}"),
            },
            other => other.to_string(),
        }
    }

    /// Catalog-aware total order: like [`Ord`], but symbols compare by
    /// their resolved strings (lexicographically), falling back to id
    /// order for unresolvable ids. For display and tests that want
    /// dictionary order; the hot path uses the id-based [`Ord`].
    pub fn cmp_resolved(&self, other: &Value, catalog: &Catalog) -> std::cmp::Ordering {
        match (self, other) {
            (Value::Sym(a), Value::Sym(b)) => {
                match (catalog.resolve_sym(*a), catalog.resolve_sym(*b)) {
                    (Some(x), Some(y)) => x.cmp(y).then(a.cmp(b)),
                    _ => a.cmp(b),
                }
            }
            _ => self.cmp(other),
        }
    }

    /// Normalised bit pattern for hashing/equality of doubles.
    #[inline]
    fn double_bits(d: f64) -> u64 {
        // Normalise -0.0 to 0.0 so the two compare/hash equal.
        if d == 0.0 {
            0f64.to_bits()
        } else {
            d.to_bits()
        }
    }

    /// Discriminant rank used for cross-variant ordering.
    #[inline]
    fn rank(&self) -> u8 {
        match self {
            Value::Int(_) => 0,
            Value::Double(_) => 1,
            Value::Sym(_) => 2,
        }
    }

    /// Approximate in-memory footprint in bytes (for memory accounting).
    /// Every variant is inline now — symbols' string storage is owned by
    /// the catalog, shared across all occurrences, and not charged here.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Value>()
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => Self::double_bits(*a) == Self::double_bits(*b),
            (Value::Sym(a), Value::Sym(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(i) => {
                state.write_u8(0);
                state.write_u64(*i as u64);
            }
            Value::Double(d) => {
                state.write_u8(1);
                state.write_u64(Self::double_bits(*d));
            }
            Value::Sym(s) => {
                // One word, like the numeric variants — no content
                // hashing anywhere in the probe path.
                state.write_u8(2);
                state.write_u64(u64::from(*s));
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => a.total_cmp(b),
            // By intern id — total and deterministic within one
            // catalog, which is all the engine needs (module docs).
            (Value::Sym(a), Value::Sym(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
        .then(Ordering::Equal)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(d: f64) -> Self {
        Value::Double(d)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            // The stable catalog-free fallback; use `Value::render` to
            // resolve the interned string.
            Value::Sym(s) => write!(f, "sym#{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FxHashMap;

    #[test]
    fn int_equality_and_hash() {
        let mut m: FxHashMap<Value, i32> = FxHashMap::default();
        m.insert(Value::Int(7), 1);
        assert_eq!(m.get(&Value::Int(7)), Some(&1));
        assert_eq!(m.get(&Value::Int(8)), None);
    }

    #[test]
    fn double_negative_zero_normalised() {
        assert_eq!(Value::Double(0.0), Value::Double(-0.0));
        let mut m: FxHashMap<Value, i32> = FxHashMap::default();
        m.insert(Value::Double(-0.0), 1);
        assert_eq!(m.get(&Value::Double(0.0)), Some(&1));
    }

    #[test]
    fn cross_type_inequality() {
        assert_ne!(Value::Int(1), Value::Double(1.0));
        assert_ne!(Value::Int(1), Value::Sym(1));
        assert_ne!(Value::Double(1.0), Value::Sym(1));
    }

    #[test]
    fn as_f64_widens_ints_but_rejects_symbols() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Double(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Sym(9).as_f64(), None);
    }

    #[test]
    fn feature_code_is_total() {
        assert_eq!(Value::Int(3).feature_code(), 3.0);
        assert_eq!(Value::Double(2.5).feature_code(), 2.5);
        assert_eq!(Value::Sym(9).feature_code(), 9.0);
    }

    #[test]
    fn ordering_is_total() {
        let mut vals = vec![
            Value::Sym(1),
            Value::Int(2),
            Value::Double(1.5),
            Value::Int(1),
            Value::Sym(0),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Int(1),
                Value::Int(2),
                Value::Double(1.5),
                Value::Sym(0),
                Value::Sym(1),
            ]
        );
    }

    #[test]
    fn display_and_render() {
        let c = Catalog::new();
        let hi = c.sym("hi");
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(hi.to_string(), "sym#0", "catalog-free fallback is stable");
        assert_eq!(hi.render(&c), "hi");
        assert_eq!(Value::Sym(99).render(&c), "sym#99", "unknown ids fall back");
        assert_eq!(Value::Int(5).render(&c), "5");
    }

    #[test]
    fn sym_orders_by_id_but_cmp_resolved_is_lexicographic() {
        let c = Catalog::new();
        // Intern out of dictionary order so id order ≠ lexicographic.
        let zebra = c.sym("zebra");
        let apple = c.sym("apple");
        assert!(zebra < apple, "id order: zebra interned first");
        assert_eq!(
            zebra.cmp_resolved(&apple, &c),
            std::cmp::Ordering::Greater,
            "resolved order: apple < zebra"
        );
        // Non-symbols delegate to Ord.
        assert_eq!(
            Value::Int(1).cmp_resolved(&Value::Int(2), &c),
            std::cmp::Ordering::Less
        );
    }

    #[test]
    fn sym_equality_agrees_with_string_equality() {
        let c = Catalog::new();
        assert_eq!(c.sym("a"), c.sym("a"));
        assert_ne!(c.sym("a"), c.sym("b"));
    }
}
