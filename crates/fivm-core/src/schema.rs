//! Variables, schemas, the name-interning catalog — and the **symbol
//! table** that backs [`crate::Value::Sym`].
//!
//! A schema is an ordered list of distinct variables (paper §2 defines
//! schemas as sets; we keep an order so tuples have a deterministic
//! layout). Variables are interned to dense [`VarId`]s by a [`Catalog`]
//! owned by the query.
//!
//! # The symbol lifecycle
//!
//! String *data values* never live inside [`crate::Value`]: they are
//! interned once, at load time, into the catalog-owned [`SymbolTable`]
//! and carried through the engine as a dense `u32` id
//! ([`crate::Value::Sym`]). The lifecycle is:
//!
//! 1. **Intern at load** — generators and loaders call
//!    [`Catalog::intern`] / [`Catalog::sym`] while building tuples.
//!    Interning takes `&self` (the table is internally synchronized) so
//!    loaders do not need a mutable query. Equal strings get equal ids.
//! 2. **Propagate as integers** — every probe, route, merge, equality,
//!    ordering and hash in the maintenance hot path sees only the
//!    8-byte id: no content hashing, no `Arc<str>` refcount traffic,
//!    and nothing allocates.
//! 3. **Resolve at the edges** — display and tests call
//!    [`Catalog::resolve_sym`] (or [`crate::Value::render`]) to get the
//!    string back. Resolution is **lock-free**: an atomic length check
//!    plus two atomic loads into append-only chunked storage; interned
//!    strings are never moved or dropped while the table lives.
//!
//! Symbol ids are only meaningful relative to the table that issued
//! them. Cloning a [`Catalog`] *shares* its symbol table (a refcount
//! bump), so the engines, view trees and threads spawned from one query
//! all resolve the same id space — which is also why `Sym` can order by
//! id: within one table the order is total and deterministic, just not
//! lexicographic (see [`crate::Value::cmp_resolved`] for the
//! catalog-aware lexicographic comparison used by display and tests).

use crate::hash::FxHashMap;
use crate::sync::atomic::{AtomicU32, Ordering};
use crate::sync::{Mutex, OnceLock};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Model-check fault injection: when set, `intern` publishes `len`
/// with `Relaxed` instead of `Release` — the seeded mutation the
/// SymbolTable model must catch (a reader can then pass the length
/// gate without the slot write being visible).
#[cfg(fivm_model_check)]
pub static SYM_FAULT_RELAXED_PUBLISH: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// log2 of the first symbol chunk's capacity (256 entries).
const SYM_CHUNK0_LOG2: u32 = 8;
/// Number of doubling chunks: chunk `c` holds `256 << c` symbols, so 23
/// chunks cover ≈ 2.1 B ids — the practical `u32` range.
const SYM_CHUNKS: usize = 23;

/// Locate symbol `id`: which chunk, and which slot within it.
#[inline]
fn sym_locate(id: u32) -> (usize, usize) {
    let x = (id >> SYM_CHUNK0_LOG2) + 1;
    let chunk = x.ilog2();
    let base = ((1u32 << chunk) - 1) << SYM_CHUNK0_LOG2;
    (chunk as usize, (id - base) as usize)
}

/// One lazily-allocated chunk of write-once symbol slots.
type SymChunk = OnceLock<Box<[OnceLock<Arc<str>>]>>;

/// Append-only storage shared by all clones of a [`SymbolTable`].
struct SymInner {
    /// Doubling chunks of write-once slots. A chunk is allocated on
    /// first use; a slot is written exactly once, under the intern
    /// mutex, *before* `len` is raised past it — so readers that pass
    /// the `len` gate always find the slot initialized.
    chunks: [SymChunk; SYM_CHUNKS],
    /// Number of published symbols (release-stored after the slot
    /// write; acquire-loaded by readers).
    len: AtomicU32,
    /// Intern map: string → id. Only the intern path locks it.
    map: Mutex<FxHashMap<Arc<str>, u32>>,
}

/// Interns string data values to dense `u32` symbol ids.
///
/// One table per [`Catalog`] (clones share it — see the
/// [module docs](self) for the symbol lifecycle). [`SymbolTable::intern`]
/// serializes writers behind a mutex; [`SymbolTable::resolve`] is
/// lock-free and never blocks on writers.
#[derive(Clone)]
pub struct SymbolTable {
    inner: Arc<SymInner>,
}

impl Default for SymbolTable {
    fn default() -> Self {
        SymbolTable {
            inner: Arc::new(SymInner {
                chunks: std::array::from_fn(|_| OnceLock::new()),
                len: AtomicU32::new(0),
                map: Mutex::new(FxHashMap::default()),
            }),
        }
    }
}

impl SymbolTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its id (existing or fresh). Equal strings
    /// always return equal ids; distinct strings, distinct ids. Takes
    /// `&self`: writers serialize on an internal mutex.
    pub fn intern(&self, s: &str) -> u32 {
        let mut map = self.inner.map.lock().expect("symbol intern mutex");
        if let Some(&id) = map.get(s) {
            return id;
        }
        // relaxed-ok: read under the intern mutex; every writer of
        // `len` holds the same mutex, so no concurrent store exists.
        let id = self.inner.len.load(Ordering::Relaxed);
        let (chunk_idx, slot) = sym_locate(id);
        assert!(
            chunk_idx < SYM_CHUNKS,
            "symbol table exhausted the u32 id space"
        );
        let arc: Arc<str> = Arc::from(s);
        let chunk = self.inner.chunks[chunk_idx].get_or_init(|| {
            (0..(1usize << (SYM_CHUNK0_LOG2 + chunk_idx as u32)))
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        chunk[slot]
            .set(arc.clone())
            .unwrap_or_else(|_| unreachable!("slot below len is written exactly once"));
        // Publish: slot contents happen-before any reader that observes
        // the new length.
        #[cfg(not(fivm_model_check))]
        self.inner.len.store(id + 1, Ordering::Release);
        #[cfg(fivm_model_check)]
        {
            // relaxed-ok: fault knob, set before the checker runs; and
            // the injected weak order IS the seeded bug under test.
            let order = if SYM_FAULT_RELAXED_PUBLISH.load(std::sync::atomic::Ordering::Relaxed) {
                Ordering::Relaxed
            } else {
                Ordering::Release
            };
            self.inner.len.store(id + 1, order);
        }
        map.insert(arc, id);
        id
    }

    /// The string for `id`, or `None` for an id this table never
    /// issued. Lock-free: a length gate plus two atomic loads.
    #[inline]
    pub fn resolve(&self, id: u32) -> Option<&str> {
        if id >= self.inner.len.load(Ordering::Acquire) {
            return None;
        }
        let (chunk_idx, slot) = sym_locate(id);
        let chunk = self.inner.chunks[chunk_idx].get()?;
        chunk[slot].get().map(|a| &**a)
    }

    /// The id of an already-interned string, without interning.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.inner
            .map
            .lock()
            .expect("symbol intern mutex")
            .get(s)
            .copied()
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.inner.len.load(Ordering::Acquire) as usize
    }

    /// True iff no symbol has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SymbolTable")
            .field("len", &self.len())
            .finish()
    }
}

/// A dense identifier for an interned variable (attribute) name.
pub type VarId = u32;

/// Interns variable names to [`VarId`]s and string data values to
/// symbol ids.
///
/// One catalog per query/database; all schemas, variable orders and view
/// trees for that query share it. Cloning a catalog deep-copies the
/// variable-name side (small, build-time only) but **shares** the
/// [`SymbolTable`] — engines, threads and view trees cloned from one
/// query resolve one id space, and symbols interned through any clone
/// are visible to all of them.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    names: Vec<String>,
    index: FxHashMap<String, VarId>,
    symbols: SymbolTable,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its id (existing or fresh).
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as VarId;
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Intern several names at once.
    pub fn vars<'a>(&mut self, names: impl IntoIterator<Item = &'a str>) -> Vec<VarId> {
        names.into_iter().map(|n| self.var(n)).collect()
    }

    /// Look up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        self.index.get(name).copied()
    }

    /// The name of a variable id.
    pub fn name(&self, id: VarId) -> &str {
        &self.names[id as usize]
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True iff no variable has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Intern a string data value, returning its symbol id (see the
    /// [module docs](self) for the symbol lifecycle). Takes `&self`:
    /// the symbol table is internally synchronized, so loaders intern
    /// without needing a mutable query.
    pub fn intern(&self, s: &str) -> u32 {
        self.symbols.intern(s)
    }

    /// Intern a string data value directly into a [`Value::Sym`].
    pub fn sym(&self, s: &str) -> Value {
        Value::Sym(self.intern(s))
    }

    /// Resolve a symbol id back to its string (lock-free), or `None`
    /// for an id this catalog's table never issued.
    #[inline]
    pub fn resolve_sym(&self, id: u32) -> Option<&str> {
        self.symbols.resolve(id)
    }

    /// The catalog's symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Render a schema with variable names, e.g. `[A, C]`.
    pub fn render(&self, schema: &Schema) -> String {
        let names: Vec<&str> = schema.iter().map(|&v| self.name(v)).collect();
        format!("[{}]", names.join(", "))
    }
}

/// An ordered list of distinct variables.
///
/// Internally reference-counted: schemas are immutable after
/// construction and cloned on every relation/delta construction in the
/// propagation path, so `clone` must be a refcount bump, not a heap
/// copy.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Schema(std::sync::Arc<[VarId]>);

impl Schema {
    /// The empty schema (keys are the empty tuple).
    pub fn empty() -> Self {
        Schema::default()
    }

    /// Build from a list of variables; panics on duplicates.
    pub fn new(vars: Vec<VarId>) -> Self {
        let mut seen = vars.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), vars.len(), "schema has duplicate variables");
        Schema(vars.into())
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The variables in order.
    pub fn vars(&self) -> &[VarId] {
        &self.0
    }

    /// Iterate over the variables.
    pub fn iter(&self) -> std::slice::Iter<'_, VarId> {
        self.0.iter()
    }

    /// Position of `v` in this schema.
    pub fn position(&self, v: VarId) -> Option<usize> {
        self.0.iter().position(|&x| x == v)
    }

    /// True iff `v` occurs in this schema.
    pub fn contains(&self, v: VarId) -> bool {
        self.0.contains(&v)
    }

    /// Positions of each variable of `other` within `self`.
    ///
    /// Returns `None` if some variable of `other` is missing.
    pub fn positions_of(&self, other: &[VarId]) -> Option<Vec<usize>> {
        other.iter().map(|&v| self.position(v)).collect()
    }

    /// Variables common to `self` and `other`, in `self` order.
    pub fn intersect(&self, other: &Schema) -> Schema {
        Schema(
            self.0
                .iter()
                .copied()
                .filter(|v| other.contains(*v))
                .collect(),
        )
    }

    /// Order-preserving union: `self` followed by the variables of
    /// `other` not already present.
    pub fn union(&self, other: &Schema) -> Schema {
        let mut out: Vec<VarId> = self.0.to_vec();
        for &v in other.0.iter() {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        Schema(out.into())
    }

    /// Variables of `self` not in `other`, in `self` order.
    pub fn minus(&self, other: &Schema) -> Schema {
        Schema(
            self.0
                .iter()
                .copied()
                .filter(|v| !other.contains(*v))
                .collect(),
        )
    }

    /// Remove a single variable.
    pub fn without(&self, v: VarId) -> Schema {
        Schema(self.0.iter().copied().filter(|&x| x != v).collect())
    }

    /// True iff every variable of `self` occurs in `other`.
    pub fn subset_of(&self, other: &Schema) -> bool {
        self.0.iter().all(|&v| other.contains(v))
    }

    /// True iff the two schemas share no variable.
    pub fn disjoint(&self, other: &Schema) -> bool {
        self.0.iter().all(|&v| !other.contains(v))
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<Vec<VarId>> for Schema {
    fn from(v: Vec<VarId>) -> Self {
        Schema::new(v)
    }
}

impl FromIterator<VarId> for Schema {
    fn from_iter<I: IntoIterator<Item = VarId>>(iter: I) -> Self {
        Schema::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_interning() {
        let mut c = Catalog::new();
        let a = c.var("A");
        let b = c.var("B");
        assert_ne!(a, b);
        assert_eq!(c.var("A"), a);
        assert_eq!(c.name(a), "A");
        assert_eq!(c.lookup("B"), Some(b));
        assert_eq!(c.lookup("Z"), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn schema_rejects_duplicates() {
        let _ = Schema::new(vec![1, 2, 1]);
    }

    #[test]
    fn set_operations() {
        let s1 = Schema::new(vec![0, 1, 2]);
        let s2 = Schema::new(vec![2, 3]);
        assert_eq!(s1.intersect(&s2), Schema::new(vec![2]));
        assert_eq!(s1.union(&s2), Schema::new(vec![0, 1, 2, 3]));
        assert_eq!(s1.minus(&s2), Schema::new(vec![0, 1]));
        assert_eq!(s1.without(1), Schema::new(vec![0, 2]));
        assert!(Schema::new(vec![1, 2]).subset_of(&s1));
        assert!(!s1.subset_of(&s2));
        assert!(Schema::new(vec![0, 1]).disjoint(&s2));
        assert!(!s1.disjoint(&s2));
    }

    #[test]
    fn positions() {
        let s = Schema::new(vec![10, 20, 30]);
        assert_eq!(s.position(20), Some(1));
        assert_eq!(s.position(40), None);
        assert_eq!(s.positions_of(&[30, 10]), Some(vec![2, 0]));
        assert_eq!(s.positions_of(&[30, 99]), None);
    }

    #[test]
    fn render() {
        let mut c = Catalog::new();
        let a = c.var("A");
        let b = c.var("B");
        assert_eq!(c.render(&Schema::new(vec![a, b])), "[A, B]");
    }

    #[test]
    fn symbol_interning_roundtrip() {
        let c = Catalog::new();
        let a = c.intern("apple");
        let b = c.intern("banana");
        assert_ne!(a, b);
        assert_eq!(c.intern("apple"), a, "re-interning is idempotent");
        assert_eq!(c.resolve_sym(a), Some("apple"));
        assert_eq!(c.resolve_sym(b), Some("banana"));
        assert_eq!(c.resolve_sym(b + 1), None);
        assert_eq!(c.symbols().lookup("banana"), Some(b));
        assert_eq!(c.symbols().lookup("cherry"), None);
        assert_eq!(c.symbols().len(), 2);
    }

    #[test]
    fn catalog_clones_share_symbols() {
        let c = Catalog::new();
        let a = c.intern("shared");
        let clone = c.clone();
        assert_eq!(clone.resolve_sym(a), Some("shared"));
        // Interning through the clone is visible to the original.
        let b = clone.intern("later");
        assert_eq!(c.resolve_sym(b), Some("later"));
        assert_eq!(c.intern("later"), b);
    }

    #[test]
    fn symbol_chunk_boundaries() {
        // Cross the first chunk boundary (256) and read everything back.
        let t = SymbolTable::new();
        let ids: Vec<u32> = (0..600).map(|i| t.intern(&format!("s{i}"))).collect();
        assert_eq!(ids, (0..600).collect::<Vec<u32>>(), "ids are dense");
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(t.resolve(*id), Some(format!("s{i}").as_str()));
        }
    }

    #[test]
    fn concurrent_intern_and_resolve_agree() {
        // Writers intern overlapping string sets while readers resolve
        // published ids; every id must round-trip to exactly one string.
        let t = SymbolTable::new();
        std::thread::scope(|s| {
            for w in 0..4 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..500 {
                        // Half the space overlaps across workers.
                        let id = t.intern(&format!("k{}", (i + w * 250) % 750));
                        let back = t.resolve(id).expect("freshly interned id resolves");
                        assert_eq!(t.intern(back), id);
                    }
                });
            }
        });
        assert_eq!(t.len(), 750);
        for id in 0..750u32 {
            let s = t.resolve(id).expect("dense ids");
            assert_eq!(t.lookup(s), Some(id), "bijective");
        }
    }
}
