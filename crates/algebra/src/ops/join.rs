//! Join operators: nested-loop (arbitrary predicates) and hash
//! (equi-join). Both are inner joins.
//!
//! All joins output `left.schema ++ right.schema` (planners deduplicate
//! shared variables with a projection above the join when needed).

use super::{BoxedOp, Operator};
use crate::error::ExecError;
use crate::expr::ScalarExpr;
use crate::funcs::FunctionRegistry;
use crate::inspect::{OpInfo, SchemaRule};
use crate::lineage::LineageMask;
use crate::schema::{Schema, Tuple};
use nimble_xml::{Atomic, OrderKey, Sym, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Join semantics, named in EXPLAIN. XML-QL has no outer join, so a
/// join emits only the pairs that match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    Inner,
}

fn concat_tuples(left: &Tuple, right: &Tuple) -> Tuple {
    let mut out = Vec::with_capacity(left.len() + right.len());
    out.extend(left.iter().cloned());
    out.extend(right.iter().cloned());
    out
}

// --- Nested-loop join ---

/// Join with an arbitrary predicate over the concatenated tuple; the
/// right side is materialized at open. Each left row is tested against
/// every right row, in order (left-major). A batch pulls only as many
/// left rows as its room can take at one right side's fan-out each, so
/// it overshoots `max` by at most one left row's fan-out.
pub struct NestedLoopJoinOp {
    left: BoxedOp,
    right: BoxedOp,
    predicate: Option<ScalarExpr>,
    join_type: JoinType,
    schema: Schema,
    funcs: Arc<FunctionRegistry>,
    right_rows: Vec<Tuple>,
    scratch: Vec<Tuple>,
    rows_out: u64,
    est_rows: Option<u64>,
    mem_bytes: u64,
    /// Right-side lineage snapshot, aligned with `right_rows` (present
    /// iff the right child tracks).
    right_lin: Option<Vec<LineageMask>>,
    /// Lineage of emitted tuples (tracking iff *both* children track).
    lin: Option<Vec<LineageMask>>,
    /// Left-side emissions consumed so far — indexes its lineage.
    left_consumed: usize,
}

impl NestedLoopJoinOp {
    pub fn new(
        left: BoxedOp,
        right: BoxedOp,
        predicate: Option<ScalarExpr>,
        join_type: JoinType,
        funcs: Arc<FunctionRegistry>,
    ) -> Self {
        let schema = left.schema().concat(right.schema());
        NestedLoopJoinOp {
            left,
            right,
            predicate,
            join_type,
            schema,
            funcs,
            right_rows: Vec::new(),
            scratch: Vec::new(),
            rows_out: 0,
            est_rows: None,
            mem_bytes: 0,
            right_lin: None,
            lin: None,
            left_consumed: 0,
        }
    }
}

impl Operator for NestedLoopJoinOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<(), ExecError> {
        self.rows_out = 0;
        self.left.open()?;
        self.right.open()?;
        self.right_rows.clear();
        super::drain(self.right.as_mut(), &mut self.right_rows)?;
        self.mem_bytes = super::tuples_mem_bytes(&self.right_rows);
        self.right_lin = self.right.lineage().map(|l| l.to_vec());
        self.right.close();
        self.lin = (self.right_lin.is_some() && self.left.lineage().is_some()).then(Vec::new);
        self.left_consumed = 0;
        Ok(())
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<usize, ExecError> {
        let fan_out = self.right_rows.len().max(1);
        let mut appended = 0;
        while appended < max {
            self.scratch.clear();
            let room = ((max - appended) / fan_out).max(1);
            let pulled = self.left.next_batch(&mut self.scratch, room)?;
            if pulled == 0 {
                break;
            }
            let base = self.left_consumed;
            self.left_consumed += pulled;
            for (i, left) in self.scratch.iter().enumerate() {
                let lm = self.lin.is_some().then(|| {
                    let masks = self.left.lineage().unwrap_or_default();
                    masks.get(base + i).copied().unwrap_or_default()
                });
                for (j, right) in self.right_rows.iter().enumerate() {
                    let combined = concat_tuples(left, right);
                    if let Some(p) = &self.predicate {
                        if !p.eval_bool(&combined, &self.funcs)? {
                            continue;
                        }
                    }
                    if let (Some(lm), Some(lin)) = (lm, self.lin.as_mut()) {
                        let rm = self.right_lin.as_deref().and_then(|r| r.get(j));
                        lin.push(lm.or(rm.copied().unwrap_or_default()));
                    }
                    out.push(combined);
                    appended += 1;
                }
            }
        }
        self.rows_out += appended as u64;
        Ok(appended)
    }

    fn close(&mut self) {
        self.left.close();
        self.right_rows.clear();
        self.right_lin = None;
        self.scratch = Vec::new();
    }

    fn describe(&self) -> String {
        format!(
            "NestedLoopJoin ({:?}) on {:?}",
            self.join_type, self.predicate
        )
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.left.as_ref(), self.right.as_ref()]
    }

    fn rows_out(&self) -> u64 {
        self.rows_out
    }

    fn introspect(&self) -> OpInfo {
        let mut info = OpInfo::new("NestedLoopJoin", SchemaRule::Concat);
        if let Some(p) = &self.predicate {
            info = info.with_join_predicate(p.clone());
        }
        info
    }

    fn est_rows(&self) -> Option<u64> {
        self.est_rows
    }

    fn set_est_rows(&mut self, rows: u64) {
        self.est_rows = Some(rows);
    }

    fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }

    fn lineage(&self) -> Option<&[LineageMask]> {
        self.lin.as_deref()
    }
}

// --- Hash join ---

/// One key column's equality class: a `(class tag, bits)` pair (see
/// [`typed_key`]).
type Key = (u8, u64);

/// The build side's hash index: buckets of row indices into
/// `HashJoinOp::build_rows`, so build tuples are stored once.
enum JoinIndex {
    /// Single-column key: the bare pair.
    Single(HashMap<Key, Vec<u32>>),
    /// Composite key: one pair per key column.
    Composite(HashMap<Box<[Key]>, Vec<u32>>),
}

impl JoinIndex {
    /// The bucket `row`'s key columns select, if any. `buf` is the
    /// composite probe's reusable key buffer (no allocation per row).
    fn probe(&self, row: &Tuple, cols: &[usize], buf: &mut Vec<Key>) -> Option<&Vec<u32>> {
        match self {
            JoinIndex::Single(map) => map.get(&typed_key(&row[cols[0]], false)?),
            JoinIndex::Composite(map) => {
                buf.clear();
                for &c in cols {
                    buf.push(typed_key(&row[c], false)?);
                }
                map.get(buf.as_slice())
            }
        }
    }

    /// Footprint of the map entries (bucket slots are counted per row).
    fn entry_bytes(&self) -> u64 {
        let bytes = match self {
            JoinIndex::Single(map) => map.len() * std::mem::size_of::<(Key, Vec<u32>)>(),
            JoinIndex::Composite(map) => map
                .iter()
                .map(|(k, _)| {
                    std::mem::size_of::<(Box<[Key]>, Vec<u32>)>() + std::mem::size_of_val(&**k)
                })
                .sum(),
        };
        bytes as u64
    }
}

/// Equi-join: builds a hash index on the right input's key columns, then
/// probes with the left input.
pub struct HashJoinOp {
    left: BoxedOp,
    right: BoxedOp,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    join_type: JoinType,
    schema: Schema,
    rows_out: u64,
    build_rows: Vec<Tuple>,
    index: JoinIndex,
    /// Reusable composite probe key.
    probe_key: Vec<Key>,
    scratch: Vec<Tuple>,
    est_rows: Option<u64>,
    /// Build-side footprint estimate, computed once at the end of the
    /// build phase (see [`Operator::mem_bytes`]).
    mem_bytes: u64,
    /// Build-side lineage, aligned with `build_rows` (present iff the
    /// right child tracks).
    build_lin: Option<Vec<LineageMask>>,
    /// Probe-side emissions consumed so far.
    left_consumed: usize,
    /// Lineage of emitted tuples (tracking iff *both* children track).
    lin: Option<Vec<LineageMask>>,
}

/// The join's equality relation, defined here and nowhere else: two
/// values join iff their keys are equal. A key is a `(class tag, bits)`
/// pair of the value's numeric reading ([`Atomic::numeric`], the one
/// every comparison takes), with no string rendering; for non-null,
/// non-NaN values, keys are equal iff `cmp(Eq, ..)` holds (DESIGN.md §23):
///
/// * tag 2, f64 bits — the numeric class: ints exactly representable as
///   f64, floats, and text that reads as a number (so `Int 5`,
///   `Float 5.0` and node text `" 5 "` collide). All NaNs collapse to
///   one key; `-0.0` stays distinct from `0.0`, and text `"-0"` is
///   `-0.0`.
/// * tag 4, i64 bits — integers f64 cannot represent, kept exact so
///   distinct keys beyond 2^53 never conflate.
/// * tag 3, interned id — every other string (`Str` and `Sym` of equal
///   content share the id; `""` is a string, not null).
/// * tags 1/0 — bools and nulls.
///
/// The build side interns (`insert`); the probe side uses a
/// non-inserting lookup and gets `None` for a string that was never
/// interned, which cannot equal any build key.
fn typed_key(v: &Value, insert: bool) -> Option<Key> {
    fn bits(f: f64) -> u64 {
        if f.is_nan() {
            f64::NAN.to_bits()
        } else {
            f.to_bits()
        }
    }
    fn int_key(i: i64) -> Key {
        if (i as f64) as i64 == i {
            (2, bits(i as f64))
        } else {
            (4, i as u64)
        }
    }
    v.with_atomic(|a| match (a.numeric(), a) {
        (Some(OrderKey::Int(i)), _) => Some(int_key(i)),
        (Some(OrderKey::Float(f)), _) => Some((2, bits(f))),
        (_, Atomic::Str(s)) if insert => Some((3, Sym::intern(s).id() as u64)),
        (_, Atomic::Str(s)) => Sym::find(s).map(|sym| (3, sym.id() as u64)),
        (_, Atomic::Sym(sym)) => Some((3, sym.id() as u64)),
        (_, Atomic::Bool(b)) => Some((1, *b as u64)),
        _ => Some((0, 0)),
    })
}

/// Build-side key (interning never fails to produce one).
fn typed_key_build(v: &Value) -> Key {
    typed_key(v, true).unwrap_or((0, 0))
}

/// Index build: one bucket of row indices per distinct key.
fn bucket_rows<K: std::hash::Hash + Eq>(
    keys: impl ExactSizeIterator<Item = K>,
) -> HashMap<K, Vec<u32>> {
    let mut map: HashMap<K, Vec<u32>> = HashMap::with_capacity(keys.len());
    for (i, k) in keys.enumerate() {
        map.entry(k).or_default().push(i as u32);
    }
    map
}

/// Lineage of the rows a probe row with mask `lm` joined: `lm` OR the
/// mask of each build row in its bucket, in bucket order.
fn joined_masks<'a>(
    lm: LineageMask,
    build_lin: &'a Option<Vec<LineageMask>>,
    idxs: &'a [u32],
) -> impl Iterator<Item = LineageMask> + 'a {
    let build_lin = build_lin.as_deref().unwrap_or(&[]);
    idxs.iter()
        .map(move |&i| lm.or(build_lin.get(i as usize).copied().unwrap_or_default()))
}

impl HashJoinOp {
    pub fn new(
        left: BoxedOp,
        right: BoxedOp,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        join_type: JoinType,
    ) -> Self {
        assert_eq!(left_keys.len(), right_keys.len(), "key arity mismatch");
        let schema = left.schema().concat(right.schema());
        HashJoinOp {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            schema,
            rows_out: 0,
            build_rows: Vec::new(),
            index: JoinIndex::Single(HashMap::new()),
            probe_key: Vec::new(),
            scratch: Vec::new(),
            est_rows: None,
            mem_bytes: 0,
            build_lin: None,
            left_consumed: 0,
            lin: None,
        }
    }

    /// Kept because the frozen `benchmark/src/layers.rs` calls it; the
    /// hint is ignored — the build runs on the calling thread — and the
    /// method goes when ROADMAP item 1 unfreezes the benchmark.
    #[doc(hidden)]
    pub fn vectorized(self, _parallel: bool) -> Self {
        self
    }

    /// Build a hash join on the variables shared by both inputs.
    pub fn natural(left: BoxedOp, right: BoxedOp, join_type: JoinType) -> Self {
        let common = left.schema().common_vars(right.schema());
        assert!(
            !common.is_empty(),
            "natural hash join requires shared variables between {} and {}",
            left.schema(),
            right.schema()
        );
        // `common_vars` only returns variables present in both schemas,
        // so both lookups always resolve.
        let lk = common
            .iter()
            .filter_map(|v| left.schema().index_of(v))
            .collect();
        let rk = common
            .iter()
            .filter_map(|v| right.schema().index_of(v))
            .collect();
        HashJoinOp::new(left, right, lk, rk, join_type)
    }
}

impl Operator for HashJoinOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<(), ExecError> {
        self.rows_out = 0;
        self.build_rows.clear();
        self.left_consumed = 0;
        self.right.open()?;
        super::drain(self.right.as_mut(), &mut self.build_rows)?;
        // Snapshot before close: masks align 1:1 with `build_rows`, so
        // bucket row indices address them directly.
        self.build_lin = self.right.lineage().map(|l| l.to_vec());
        self.right.close();
        let rows = &self.build_rows;
        self.index = if let [col] = self.right_keys[..] {
            JoinIndex::Single(bucket_rows(rows.iter().map(|t| typed_key_build(&t[col]))))
        } else {
            let cols = &self.right_keys;
            JoinIndex::Composite(bucket_rows(rows.iter().map(|t| {
                cols.iter()
                    .map(|&c| typed_key_build(&t[c]))
                    .collect::<Box<[Key]>>()
            })))
        };
        let bucket_slots = (self.build_rows.len() * std::mem::size_of::<u32>()) as u64;
        self.mem_bytes =
            super::tuples_mem_bytes(&self.build_rows) + self.index.entry_bytes() + bucket_slots;
        self.left.open()?;
        self.lin = (self.build_lin.is_some() && self.left.lineage().is_some()).then(Vec::new);
        Ok(())
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<usize, ExecError> {
        let mut appended = 0;
        let right_width = self.right.schema().len();
        while appended < max {
            self.scratch.clear();
            let pulled = self.left.next_batch(&mut self.scratch, max - appended)?;
            if pulled == 0 {
                break;
            }
            let lin_base = self.left_consumed;
            if self.lin.is_some() {
                self.left_consumed += pulled;
            }
            for (row_i, mut left) in self.scratch.drain(..).enumerate() {
                let lm = if self.lin.is_some() {
                    Some(
                        self.left
                            .lineage()
                            .and_then(|l| l.get(lin_base + row_i))
                            .copied()
                            .unwrap_or_default(),
                    )
                } else {
                    None
                };
                let Some(idxs) = self
                    .index
                    .probe(&left, &self.left_keys, &mut self.probe_key)
                else {
                    continue;
                };
                // Clone the probe tuple for all matches but the last,
                // which takes ownership (one probe row's fan-out may
                // overshoot `max`).
                appended += idxs.len();
                let (last, init) = match idxs.split_last() {
                    Some(p) => p,
                    None => continue, // buckets are never empty
                };
                for &i in init {
                    out.push(concat_tuples(&left, &self.build_rows[i as usize]));
                }
                left.reserve(right_width);
                left.extend(self.build_rows[*last as usize].iter().cloned());
                out.push(left);
                if let (Some(lm), Some(lin)) = (lm, self.lin.as_mut()) {
                    lin.extend(joined_masks(lm, &self.build_lin, idxs));
                }
            }
        }
        self.rows_out += appended as u64;
        Ok(appended)
    }

    fn close(&mut self) {
        self.left.close();
        self.build_rows.clear();
        self.build_lin = None;
        self.index = JoinIndex::Single(HashMap::new());
        self.scratch = Vec::new();
    }

    fn describe(&self) -> String {
        format!(
            "HashJoin ({:?}) keys {:?}={:?}",
            self.join_type, self.left_keys, self.right_keys
        )
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.left.as_ref(), self.right.as_ref()]
    }

    fn rows_out(&self) -> u64 {
        self.rows_out
    }

    fn introspect(&self) -> OpInfo {
        OpInfo::new("HashJoin", SchemaRule::Concat)
            .with_join_keys(self.left_keys.clone(), self.right_keys.clone())
    }

    fn est_rows(&self) -> Option<u64> {
        self.est_rows
    }

    fn set_est_rows(&mut self, rows: u64) {
        self.est_rows = Some(rows);
    }

    fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }

    fn lineage(&self) -> Option<&[LineageMask]> {
        self.lin.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::ops::testutil::{int_source, ints};
    use crate::run_to_vec;

    fn rows_of(op: &mut dyn Operator) -> Vec<Vec<i64>> {
        run_to_vec(op).unwrap().iter().map(ints).collect()
    }

    #[test]
    fn nested_loop_theta_join() {
        let left = int_source(&["a"], &[&[1], &[2], &[3]]);
        let right = int_source(&["b"], &[&[2], &[3]]);
        // a < b
        let pred = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::Col(0), ScalarExpr::Col(1));
        let mut op = NestedLoopJoinOp::new(
            Box::new(left),
            Box::new(right),
            Some(pred),
            JoinType::Inner,
            Arc::new(FunctionRegistry::with_builtins()),
        );
        assert_eq!(rows_of(&mut op), vec![vec![1, 2], vec![1, 3], vec![2, 3]]);
    }

    #[test]
    fn hash_join_inner() {
        let left = int_source(&["k", "x"], &[&[1, 10], &[2, 20], &[2, 21], &[3, 30]]);
        let right = int_source(&["k2", "y"], &[&[2, 200], &[3, 300], &[4, 400]]);
        let mut op = HashJoinOp::new(Box::new(left), Box::new(right), vec![0], vec![0], JoinType::Inner);
        let mut rows = rows_of(&mut op);
        rows.sort();
        assert_eq!(
            rows,
            vec![vec![2, 20, 2, 200], vec![2, 21, 2, 200], vec![3, 30, 3, 300]]
        );
    }

    #[test]
    fn hash_join_natural_uses_shared_vars() {
        let left = int_source(&["k", "x"], &[&[1, 10]]);
        let right = int_source(&["k", "y"], &[&[1, 99], &[2, 98]]);
        let mut op = HashJoinOp::natural(Box::new(left), Box::new(right), JoinType::Inner);
        assert_eq!(rows_of(&mut op), vec![vec![1, 10, 1, 99]]);
    }

    #[test]
    fn huge_int_keys_do_not_conflate() {
        use crate::ops::ValuesOp;
        use nimble_xml::Value;
        // 2^53 and 2^53+1 coerce to the same f64; they must not join.
        let big = 1i64 << 53;
        let schema_l = Schema::new(vec!["k".into()]);
        let left = ValuesOp::new(schema_l, vec![vec![Value::from(big + 1)]]);
        let schema_r = Schema::new(vec!["k2".into()]);
        let right = ValuesOp::new(schema_r, vec![vec![Value::from(big)]]);
        let mut op =
            HashJoinOp::new(Box::new(left), Box::new(right), vec![0], vec![0], JoinType::Inner);
        assert!(run_to_vec(&mut op).unwrap().is_empty());
        // Equal huge keys still join.
        let schema_l = Schema::new(vec!["k".into()]);
        let left = ValuesOp::new(schema_l, vec![vec![Value::from(big + 1)]]);
        let schema_r = Schema::new(vec!["k2".into()]);
        let right = ValuesOp::new(schema_r, vec![vec![Value::from(big + 1)]]);
        let mut op =
            HashJoinOp::new(Box::new(left), Box::new(right), vec![0], vec![0], JoinType::Inner);
        assert_eq!(run_to_vec(&mut op).unwrap().len(), 1);
    }

    #[test]
    fn cross_type_keys_join() {
        use nimble_xml::{Atomic, Value};
        let schema_l = Schema::new(vec!["k".into()]);
        let left = ValuesOp::new(schema_l, vec![vec![Value::Atomic(Atomic::Int(5))]]);
        let schema_r = Schema::new(vec!["k2".into()]);
        let right = ValuesOp::new(
            schema_r,
            vec![
                vec![Value::Atomic(Atomic::Str("5".into()))],
                vec![Value::Atomic(Atomic::Float(5.0))],
            ],
        );
        use crate::ops::ValuesOp;
        let mut op = HashJoinOp::new(Box::new(left), Box::new(right), vec![0], vec![0], JoinType::Inner);
        assert_eq!(run_to_vec(&mut op).unwrap().len(), 2);
    }

    #[test]
    fn drain_scan_feeds_join_once() {
        use crate::ops::ValuesOp;
        use nimble_xml::Value;
        // Scans move their tuples into the join, and a scan that handed
        // its rows out reads empty when re-opened.
        let rows: Vec<Tuple> = (0..10).map(|i| vec![Value::from(i as i64)]).collect();
        let left = ValuesOp::new(Schema::new(vec!["k".into()]), rows.clone());
        let right = ValuesOp::new(Schema::new(vec!["k2".into()]), rows.clone());
        let mut join = HashJoinOp::new(
            Box::new(left),
            Box::new(right),
            vec![0],
            vec![0],
            JoinType::Inner,
        );
        assert_eq!(run_to_vec(&mut join).unwrap().len(), 10);

        let mut drained = ValuesOp::new(Schema::new(vec!["k".into()]), rows);
        assert_eq!(run_to_vec(&mut drained).unwrap().len(), 10);
        assert_eq!(run_to_vec(&mut drained).unwrap().len(), 0);
    }
}
