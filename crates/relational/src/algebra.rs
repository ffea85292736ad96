//! Relational algebra over materialized relations.
//!
//! These operators power the SQL executor and the "Navicat-style" baseline
//! used in the evaluation: plain joins that exhibit the duplication blowup
//! the paper's introduction motivates (Figure 1 caption).

use crate::expr::Expr;
use crate::table::Row;
use crate::value::{DataType, Value};
use crate::{Error, Result};
use std::collections::HashMap;

/// A column of an intermediate relation: optional table qualifier + name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelColumn {
    /// Table alias or name this column came from, if any.
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl RelColumn {
    /// Creates a qualified column.
    pub fn qualified(qualifier: impl Into<String>, name: impl Into<String>, ty: DataType) -> Self {
        RelColumn {
            qualifier: Some(qualifier.into()),
            name: name.into(),
            data_type: ty,
        }
    }

    /// Creates an unqualified column.
    pub fn bare(name: impl Into<String>, ty: DataType) -> Self {
        RelColumn {
            qualifier: None,
            name: name.into(),
            data_type: ty,
        }
    }

    /// `qualifier.name` or just `name`.
    pub fn qualified_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Whether this column is referred to by `name`, which may be
    /// `column` or `qualifier.column`.
    pub fn matches_name(&self, name: &str) -> bool {
        if let Some((q, c)) = name.split_once('.') {
            self.qualifier.as_deref() == Some(q) && self.name == c
        } else {
            self.name == name
        }
    }
}

/// A fully materialized intermediate relation.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    /// Output columns.
    pub columns: Vec<RelColumn>,
    /// Tuples.
    pub rows: Vec<Row>,
}

impl Relation {
    /// Creates a relation.
    pub fn new(columns: Vec<RelColumn>, rows: Vec<Row>) -> Self {
        Relation { columns, rows }
    }

    /// The qualified output columns a scan of `table` under `alias`
    /// produces. Single source for [`Relation::from_table`], the columnar
    /// scans ([`crate::colrel::ColRelation`]) and the executor's zero-row
    /// predicate-resolution shapes, so name resolution can never diverge
    /// from the columns a scan actually yields.
    pub fn table_columns(table: &crate::table::Table, alias: &str) -> Vec<RelColumn> {
        table
            .schema()
            .columns
            .iter()
            .map(|c| RelColumn::qualified(alias, &c.name, c.data_type))
            .collect()
    }

    /// Builds a relation from a stored table, qualifying columns with `alias`.
    /// Rows are materialized from the table's columnar storage.
    pub fn from_table(table: &crate::table::Table, alias: &str) -> Self {
        Relation {
            columns: Self::table_columns(table, alias),
            rows: table.to_rows(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Resolves a (possibly qualified) column name to its position.
    ///
    /// Errors on unknown and on ambiguous unqualified names.
    pub fn resolve(&self, name: &str) -> Result<usize> {
        resolve_name(&self.columns, name)
    }

    /// σ — keeps rows satisfying `pred`.
    pub fn select(&self, pred: &Expr) -> Result<Relation> {
        let mut rows = Vec::new();
        for r in &self.rows {
            if pred.matches(r)? {
                rows.push(r.clone());
            }
        }
        Ok(Relation::new(self.columns.clone(), rows))
    }

    /// π — keeps the columns at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Result<Relation> {
        for &i in indices {
            if i >= self.columns.len() {
                return Err(Error::Eval(format!("projection index {i} out of range")));
            }
        }
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        let rows = self
            .rows
            .iter()
            .map(|r| indices.iter().map(|&i| r[i]).collect())
            .collect();
        Ok(Relation::new(columns, rows))
    }

    /// Removes duplicate rows (set semantics), preserving first occurrence.
    pub fn distinct(&self) -> Relation {
        let mut seen = std::collections::HashSet::new();
        let rows = self
            .rows
            .iter()
            .filter(|r| seen.insert((*r).clone()))
            .cloned()
            .collect();
        Relation::new(self.columns.clone(), rows)
    }

    /// Cartesian product.
    pub fn cross(&self, other: &Relation) -> Relation {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        let mut rows = Vec::with_capacity(self.len() * other.len());
        for l in &self.rows {
            for r in &other.rows {
                let mut combined = Vec::with_capacity(l.len() + r.len());
                combined.extend_from_slice(l);
                combined.extend_from_slice(r);
                rows.push(combined);
            }
        }
        Relation::new(columns, rows)
    }

    /// Sorts rows by the given keys (stable; ties keep input order).
    ///
    /// Sort-key cells are hoisted once into a flat rank-decorated key
    /// column ([`SortCell`] over one [`crate::intern::RankMap`] snapshot),
    /// so the comparator compares machine words and never touches the
    /// interner — there is no string-resolving fallback inside the sort.
    pub fn sort_by(&self, keys: &[SortKey]) -> Relation {
        use crate::value::SortCell;
        let ranks = crate::intern::rank_map();
        let stride = keys.len();
        let mut decorated: Vec<SortCell> = Vec::with_capacity(self.rows.len() * stride);
        for r in &self.rows {
            decorated.extend(keys.iter().map(|k| SortCell::new(r[k.column], &ranks)));
        }
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        order.sort_by(|&a, &b| {
            for (ki, k) in keys.iter().enumerate() {
                let ord =
                    SortCell::total_cmp(decorated[a * stride + ki], decorated[b * stride + ki]);
                let ord = if k.descending { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        let rows = order.into_iter().map(|i| self.rows[i].clone()).collect();
        Relation::new(self.columns.clone(), rows)
    }

    /// Keeps the first `n` rows.
    pub fn limit(&self, n: usize) -> Relation {
        Relation::new(
            self.columns.clone(),
            self.rows.iter().take(n).cloned().collect(),
        )
    }

    /// Skips the first `n` rows (SQL OFFSET).
    pub fn offset(&self, n: usize) -> Relation {
        Relation::new(
            self.columns.clone(),
            self.rows.iter().skip(n).cloned().collect(),
        )
    }

    /// GROUP BY + aggregates over this (already materialized) relation.
    ///
    /// `group_cols` are the grouping key positions; each aggregate consumes
    /// an input column (or `None` for `COUNT(*)`). Output columns are the
    /// group keys followed by one column per aggregate; groups appear in
    /// first-occurrence order.
    pub fn group_by(&self, group_cols: &[usize], aggs: &[AggSpec]) -> Result<Relation> {
        group_core(
            self.rows.len(),
            |r, c| self.rows[r][c],
            &self.columns,
            group_cols,
            aggs,
        )
    }
}

/// Resolves a (possibly qualified) column name against a column list —
/// the single resolution rule shared by [`Relation`] and
/// [`crate::colrel::ColRelation`], so the materialized and selection-vector
/// pipelines can never disagree on what a name means.
///
/// Errors on unknown and on ambiguous unqualified names.
pub(crate) fn resolve_name(columns: &[RelColumn], name: &str) -> Result<usize> {
    let hits: Vec<usize> = columns
        .iter()
        .enumerate()
        .filter(|(_, c)| c.matches_name(name))
        .map(|(i, _)| i)
        .collect();
    match hits.len() {
        0 => Err(Error::UnknownColumn(name.to_string())),
        1 => Ok(hits[0]),
        _ => Err(Error::Eval(format!("ambiguous column reference `{name}`"))),
    }
}

/// A packed grouping key. Single- and two-column keys (the overwhelmingly
/// common shapes) are inline `Copy` data; only wider keys heap-allocate.
/// Equality and hashing delegate to [`Value`], so `Int(2)` and
/// `Float(2.0)` land in the same group exactly as before.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GroupKey {
    One(Value),
    Two([Value; 2]),
    Wide(Box<[Value]>),
}

impl GroupKey {
    fn read(group_cols: &[usize], cell: impl Fn(usize) -> Value) -> GroupKey {
        match group_cols {
            [a] => GroupKey::One(cell(*a)),
            [a, b] => GroupKey::Two([cell(*a), cell(*b)]),
            wide => GroupKey::Wide(wide.iter().map(|&c| cell(c)).collect()),
        }
    }

    /// The packed key cells, for filling the group-key arena without
    /// re-reading the input columns.
    fn values(&self) -> &[Value] {
        match self {
            GroupKey::One(v) => std::slice::from_ref(v),
            GroupKey::Two(vs) => vs,
            GroupKey::Wide(vs) => vs,
        }
    }
}

/// Whether `aggs` contains MIN/MAX — the aggregates whose running state
/// compares through rank-decorated cells and therefore needs one
/// [`crate::intern::RankMap`] snapshot shared across every partial table.
pub(crate) fn aggs_need_ranks(aggs: &[AggSpec]) -> bool {
    aggs.iter()
        .any(|a| matches!(a.func, AggFunc::Min | AggFunc::Max))
}

/// The output columns of a grouped aggregation: the group-key columns (in
/// `group_cols` order) followed by one column per aggregate. Takes the
/// **original** (un-remapped) column positions, so the parallel path —
/// which feeds [`GroupAcc`] dense remapped indexes — still derives output
/// names and types from the real input schema.
pub(crate) fn group_output_columns(
    in_columns: &[RelColumn],
    group_cols: &[usize],
    aggs: &[AggSpec],
) -> Vec<RelColumn> {
    let mut columns: Vec<RelColumn> = group_cols.iter().map(|&i| in_columns[i].clone()).collect();
    for spec in aggs {
        let ty = match spec.func {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => spec
                .input
                .map(|c| in_columns[c].data_type)
                .unwrap_or(DataType::Int),
        };
        columns.push(RelColumn::bare(spec.output_name.clone(), ty));
    }
    columns
}

/// A grouped-aggregation accumulator: the group index plus per-group
/// [`AggState`]s, fed one row at a time.
///
/// This is the unit of morsel parallelism for grouped aggregation: each
/// morsel builds its own `GroupAcc` (a *partial* table), and partials are
/// [`merged`](GroupAcc::merge) into one accumulator **in fixed chunk
/// order**, which preserves first-occurrence group order and makes the
/// result independent of pool size. The sequential path ([`group_core`]) is
/// the degenerate single-partial case of the same code.
///
/// Each row's key cells are packed into a [`GroupKey`] (no per-row
/// `Vec<Value>`), hashed into the group index via the entry API (one hash
/// per row), and every aggregate updates its per-group state vector
/// (`states[spec][group]`). Group key cells live in one flat arena; output
/// rows are only assembled by [`finish`](GroupAcc::finish), in
/// first-occurrence order.
pub(crate) struct GroupAcc {
    group_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    ranks: Option<crate::intern::RankMap>,
    index: HashMap<GroupKey, usize>,
    key_data: Vec<Value>,
    states: Vec<Vec<AggState>>,
    n_groups: usize,
}

impl GroupAcc {
    /// Creates an empty accumulator. `ranks` must be `Some` when `aggs`
    /// contains MIN/MAX ([`aggs_need_ranks`]); every partial that will later
    /// merge into the same accumulator must share the **same** snapshot.
    pub(crate) fn new(
        group_cols: &[usize],
        aggs: &[AggSpec],
        ranks: Option<crate::intern::RankMap>,
    ) -> GroupAcc {
        GroupAcc {
            group_cols: group_cols.to_vec(),
            aggs: aggs.to_vec(),
            ranks,
            index: HashMap::new(),
            key_data: Vec::new(),
            states: aggs.iter().map(|_| Vec::new()).collect(),
            n_groups: 0,
        }
    }

    /// Resolves (creating if new) the group index for a just-read key.
    fn group_of(&mut self, key: GroupKey) -> usize {
        match self.index.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let g = self.n_groups;
                // A new group's key cells are copied out of the just-built
                // key instead of re-read from the input columns.
                self.key_data.extend_from_slice(e.key().values());
                for (si, spec) in self.aggs.iter().enumerate() {
                    self.states[si].push(AggState::new(spec));
                }
                self.n_groups += 1;
                e.insert(g);
                g
            }
        }
    }

    /// Ensures the single implicit group of a key-less aggregation exists.
    fn global_group(&mut self) -> usize {
        if self.n_groups == 0 {
            for (si, spec) in self.aggs.iter().enumerate() {
                self.states[si].push(AggState::new(spec));
            }
            self.n_groups = 1;
        }
        0
    }

    /// Feeds one input row; `cell` reads that row's value at a column
    /// position (in whatever index space `group_cols`/agg inputs use).
    pub(crate) fn update(&mut self, cell: impl Fn(usize) -> Value) -> Result<()> {
        let gi = if self.group_cols.is_empty() {
            self.global_group()
        } else {
            let key = GroupKey::read(&self.group_cols, &cell);
            self.group_of(key)
        };
        for si in 0..self.aggs.len() {
            let v = self.aggs[si].input.map(&cell);
            self.states[si][gi].update(v.as_ref(), self.ranks.as_ref())?;
        }
        Ok(())
    }

    /// Folds a partial accumulator into `self`. Call in **fixed chunk
    /// order**: a group first seen in chunk *k* keeps that position in the
    /// output, exactly where a sequential pass would have discovered it.
    pub(crate) fn merge(&mut self, other: GroupAcc) -> Result<()> {
        let n_keys = self.group_cols.len();
        let mut incoming: Vec<std::vec::IntoIter<AggState>> =
            other.states.into_iter().map(Vec::into_iter).collect();
        for g in 0..other.n_groups {
            let gi = if n_keys == 0 {
                self.global_group()
            } else {
                // Rebuild the packed key from the partial's key arena
                // (same shape rule as `GroupKey::read`).
                let key = match &other.key_data[g * n_keys..(g + 1) * n_keys] {
                    [a] => GroupKey::One(*a),
                    [a, b] => GroupKey::Two([*a, *b]),
                    wide => GroupKey::Wide(wide.to_vec().into_boxed_slice()),
                };
                self.group_of(key)
            };
            for (si, it) in incoming.iter_mut().enumerate() {
                let st = it.next().ok_or_else(|| {
                    Error::Eval("partial aggregate table missing a group state".into())
                })?;
                self.states[si][gi].merge(st)?;
            }
        }
        Ok(())
    }

    /// Assembles the output relation (groups in first-occurrence order).
    /// `columns` is the output schema from [`group_output_columns`].
    pub(crate) fn finish(mut self, columns: Vec<RelColumn>) -> Relation {
        let n_keys = self.group_cols.len();
        // Empty input with no grouping keys still yields a single group for
        // aggregates, matching SQL semantics.
        if n_groups_needs_seed(self.n_groups, n_keys, &self.aggs) {
            self.global_group();
        }
        let mut finishers: Vec<std::vec::IntoIter<AggState>> =
            self.states.into_iter().map(Vec::into_iter).collect();
        let mut rows: Vec<Row> = Vec::with_capacity(self.n_groups);
        for g in 0..self.n_groups {
            let mut out: Row = Vec::with_capacity(n_keys + self.aggs.len());
            out.extend_from_slice(&self.key_data[g * n_keys..(g + 1) * n_keys]);
            out.extend(finishers.iter_mut().map(|f| {
                f.next()
                    .expect("one state per group per aggregate")
                    .finish()
            }));
            rows.push(out);
        }
        Relation::new(columns, rows)
    }
}

/// True when a key-less aggregation over empty input still owes its single
/// implicit output group.
fn n_groups_needs_seed(n_groups: usize, n_keys: usize, aggs: &[AggSpec]) -> bool {
    n_groups == 0 && n_keys == 0 && !aggs.is_empty()
}

/// The shared sequential grouping kernel behind [`Relation::group_by`] and
/// [`crate::colrel::ColRelation::group_by`]'s fallback path: one
/// [`GroupAcc`] fed every row in order, then finished. The parallel path in
/// [`crate::colrel::ColRelation::group_by`] runs the same accumulator per
/// morsel and merges.
pub(crate) fn group_core<F>(
    n_rows: usize,
    cell: F,
    in_columns: &[RelColumn],
    group_cols: &[usize],
    aggs: &[AggSpec],
) -> Result<Relation>
where
    F: Fn(usize, usize) -> Value,
{
    // MIN/MAX compare through rank-decorated cells; snapshot the dictionary
    // ranks once per aggregation instead of locking the arena per update.
    let ranks = aggs_need_ranks(aggs).then(crate::intern::rank_map);
    let mut acc = GroupAcc::new(group_cols, aggs, ranks);
    for r in 0..n_rows {
        acc.update(|c| cell(r, c))?;
    }
    Ok(acc.finish(group_output_columns(in_columns, group_cols, aggs)))
}

/// One ORDER BY key.
#[derive(Debug, Clone, Copy)]
pub struct SortKey {
    /// Column position.
    pub column: usize,
    /// Descending order?
    pub descending: bool,
}

impl SortKey {
    /// Ascending key.
    pub fn asc(column: usize) -> Self {
        SortKey {
            column,
            descending: false,
        }
    }

    /// Descending key.
    pub fn desc(column: usize) -> Self {
        SortKey {
            column,
            descending: true,
        }
    }
}

/// Aggregate functions supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// COUNT(col) or COUNT(*) when input is None.
    Count,
    /// SUM(col).
    Sum,
    /// AVG(col).
    Avg,
    /// MIN(col).
    Min,
    /// MAX(col).
    Max,
}

/// An aggregate over an input column.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Which aggregate.
    pub func: AggFunc,
    /// Input column position; `None` means `COUNT(*)`.
    pub input: Option<usize>,
    /// Name of the output column.
    pub output_name: String,
}

impl AggSpec {
    /// Builds a spec.
    pub fn new(func: AggFunc, input: Option<usize>, output_name: impl Into<String>) -> Self {
        AggSpec {
            func,
            input,
            output_name: output_name.into(),
        }
    }

    /// `COUNT(*)` spec.
    pub fn count_star(output_name: impl Into<String>) -> Self {
        Self::new(AggFunc::Count, None, output_name)
    }
}

/// Per-group running state of one aggregate.
///
/// SUM/AVG keep **integer inputs in an exact `i128` accumulator** and only
/// float inputs in the `f64` accumulator. Integer addition is associative,
/// so splitting a group across morsels and merging the partial states in
/// any grouping of chunks produces bit-identical results — the property the
/// parallel grouped-aggregation path ([`GroupAcc::merge`]) relies on.
#[derive(Debug)]
enum AggState {
    Count(i64),
    Sum {
        fsum: f64,
        isum: i128,
        any: bool,
        int_only: bool,
    },
    Avg {
        fsum: f64,
        isum: i128,
        n: i64,
    },
    // MIN/MAX keep the running best as a rank-decorated cell so text
    // candidates compare by dictionary rank, never through the arena lock.
    Min(Option<crate::value::SortCell>),
    Max(Option<crate::value::SortCell>),
}

impl AggState {
    fn new(spec: &AggSpec) -> AggState {
        match spec.func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                fsum: 0.0,
                isum: 0,
                any: false,
                int_only: true,
            },
            AggFunc::Avg => AggState::Avg {
                fsum: 0.0,
                isum: 0,
                n: 0,
            },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, v: Option<&Value>, ranks: Option<&crate::intern::RankMap>) -> Result<()> {
        match self {
            AggState::Count(n) => {
                // COUNT(*) counts rows; COUNT(col) skips NULLs.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    _ => {}
                }
            }
            AggState::Sum {
                fsum,
                isum,
                any,
                int_only,
            } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        match val {
                            Value::Int(i) => *isum += *i as i128,
                            _ => {
                                let f = val.as_float().ok_or_else(|| {
                                    Error::Eval(format!("SUM over non-number {val}"))
                                })?;
                                *fsum += f;
                                *int_only = false;
                            }
                        }
                        *any = true;
                    }
                }
            }
            AggState::Avg { fsum, isum, n } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        match val {
                            Value::Int(i) => *isum += *i as i128,
                            _ => {
                                let f = val.as_float().ok_or_else(|| {
                                    Error::Eval(format!("AVG over non-number {val}"))
                                })?;
                                *fsum += f;
                            }
                        }
                        *n += 1;
                    }
                }
            }
            AggState::Min(best) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let cand = crate::value::SortCell::new(
                            *val,
                            ranks.expect("rank snapshot taken for MIN/MAX"),
                        );
                        Self::keep_best(best, cand, std::cmp::Ordering::Less);
                    }
                }
            }
            AggState::Max(best) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let cand = crate::value::SortCell::new(
                            *val,
                            ranks.expect("rank snapshot taken for MIN/MAX"),
                        );
                        Self::keep_best(best, cand, std::cmp::Ordering::Greater);
                    }
                }
            }
        }
        Ok(())
    }

    /// Replaces `best` with `cand` when `cand` strictly wins (`want` is
    /// `Less` for MIN, `Greater` for MAX). Ties keep the incumbent, so the
    /// earlier-in-row-order candidate survives — both sequentially and when
    /// merging partial states in chunk order.
    fn keep_best(
        best: &mut Option<crate::value::SortCell>,
        cand: crate::value::SortCell,
        want: std::cmp::Ordering,
    ) {
        let better = match best {
            Some(b) => crate::value::SortCell::total_cmp(cand, *b) == want,
            None => true,
        };
        if better {
            *best = Some(cand);
        }
    }

    /// Folds another partial state of the **same aggregate kind** into
    /// `self`. Partial states come from per-morsel [`GroupAcc`]s and are
    /// merged in fixed chunk order; both MIN/MAX candidates carry
    /// [`crate::value::SortCell`]s built from the *same* rank snapshot, so
    /// cross-partial comparisons are well-defined.
    fn merge(&mut self, other: AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count(n), AggState::Count(m)) => *n += m,
            (
                AggState::Sum {
                    fsum,
                    isum,
                    any,
                    int_only,
                },
                AggState::Sum {
                    fsum: f2,
                    isum: i2,
                    any: a2,
                    int_only: o2,
                },
            ) => {
                *fsum += f2;
                *isum += i2;
                *any |= a2;
                *int_only &= o2;
            }
            (
                AggState::Avg { fsum, isum, n },
                AggState::Avg {
                    fsum: f2,
                    isum: i2,
                    n: n2,
                },
            ) => {
                *fsum += f2;
                *isum += i2;
                *n += n2;
            }
            (AggState::Min(best), AggState::Min(cand)) => {
                if let Some(c) = cand {
                    Self::keep_best(best, c, std::cmp::Ordering::Less);
                }
            }
            (AggState::Max(best), AggState::Max(cand)) => {
                if let Some(c) = cand {
                    Self::keep_best(best, c, std::cmp::Ordering::Greater);
                }
            }
            _ => {
                return Err(Error::Eval(
                    "aggregate state kind mismatch while merging partials".into(),
                ))
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum {
                fsum,
                isum,
                any,
                int_only,
            } => {
                if !any {
                    Value::Null
                } else if int_only {
                    Value::Int(clamp_i128(isum))
                } else {
                    Value::Float(isum as f64 + fsum)
                }
            }
            AggState::Avg { fsum, isum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float((isum as f64 + fsum) / n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => {
                v.map(crate::value::SortCell::value).unwrap_or(Value::Null)
            }
        }
    }
}

/// Saturates an exact `i128` integer sum into the engine's `i64` value
/// domain (mirrors the saturating `f64 -> i64` cast the old float-based
/// accumulator performed at the same magnitudes).
fn clamp_i128(v: i128) -> i64 {
    i64::try_from(v).unwrap_or(if v < 0 { i64::MIN } else { i64::MAX })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(names: &[&str], rows: Vec<Row>) -> Relation {
        let columns = names
            .iter()
            .map(|n| RelColumn::bare(*n, DataType::Int))
            .collect();
        Relation::new(columns, rows)
    }

    #[test]
    fn select_filters() {
        let r = rel(&["a"], vec![vec![1.into()], vec![2.into()], vec![3.into()]]);
        let out = r.select(&Expr::col(0).gt(Expr::lit(1))).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn project_reorders() {
        let r = rel(&["a", "b"], vec![vec![1.into(), 2.into()]]);
        let out = r.project(&[1, 0]).unwrap();
        assert_eq!(out.columns[0].name, "b");
        assert_eq!(out.rows[0], vec![Value::Int(2), Value::Int(1)]);
    }

    #[test]
    fn distinct_removes_duplicates() {
        let r = rel(&["a"], vec![vec![1.into()], vec![1.into()], vec![2.into()]]);
        assert_eq!(r.distinct().len(), 2);
    }

    #[test]
    fn sort_and_limit() {
        let r = rel(&["a"], vec![vec![3.into()], vec![1.into()], vec![2.into()]]);
        let out = r.sort_by(&[SortKey::desc(0)]).limit(2);
        assert_eq!(out.rows, vec![vec![Value::Int(3)], vec![Value::Int(2)]]);
    }

    #[test]
    fn group_by_count() {
        let r = rel(
            &["k", "v"],
            vec![
                vec![1.into(), 10.into()],
                vec![1.into(), Value::Null],
                vec![2.into(), 30.into()],
            ],
        );
        let out = r
            .group_by(
                &[0],
                &[
                    AggSpec::count_star("n"),
                    AggSpec::new(AggFunc::Count, Some(1), "nv"),
                    AggSpec::new(AggFunc::Sum, Some(1), "s"),
                    AggSpec::new(AggFunc::Avg, Some(1), "a"),
                    AggSpec::new(AggFunc::Min, Some(1), "mn"),
                    AggSpec::new(AggFunc::Max, Some(1), "mx"),
                ],
            )
            .unwrap();
        assert_eq!(out.len(), 2);
        let g1 = out.rows.iter().find(|r| r[0] == 1.into()).unwrap();
        assert_eq!(g1[1], Value::Int(2)); // COUNT(*)
        assert_eq!(g1[2], Value::Int(1)); // COUNT(v) skips NULL
        assert_eq!(g1[3], Value::Int(10)); // SUM
        assert_eq!(g1[4], Value::Float(10.0)); // AVG
        assert_eq!(g1[5], Value::Int(10)); // MIN
        assert_eq!(g1[6], Value::Int(10)); // MAX
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let r = rel(&["a"], vec![]);
        let out = r.group_by(&[], &[AggSpec::count_star("n")]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows[0][0], Value::Int(0));
    }

    #[test]
    fn resolve_qualified_and_ambiguous() {
        let columns = vec![
            RelColumn::qualified("p", "id", DataType::Int),
            RelColumn::qualified("a", "id", DataType::Int),
        ];
        let r = Relation::new(columns, vec![]);
        assert!(r.resolve("id").is_err()); // ambiguous
        assert_eq!(r.resolve("p.id").unwrap(), 0);
        assert_eq!(r.resolve("a.id").unwrap(), 1);
        assert!(r.resolve("x.id").is_err());
    }

    #[test]
    fn cross_product_size() {
        let a = rel(&["a"], vec![vec![1.into()], vec![2.into()]]);
        let b = rel(&["b"], vec![vec![3.into()], vec![4.into()], vec![5.into()]]);
        assert_eq!(a.cross(&b).len(), 6);
    }

    /// Splits `values` at `split` into two partial states, merges them,
    /// and returns (sequential result, merged result).
    fn seq_vs_merged(spec: &AggSpec, values: &[Value], split: usize) -> (Value, Value) {
        let ranks = Some(crate::intern::rank_map());
        let mut whole = AggState::new(spec);
        for v in values {
            whole.update(Some(v), ranks.as_ref()).unwrap();
        }
        let mut lo = AggState::new(spec);
        for v in &values[..split] {
            lo.update(Some(v), ranks.as_ref()).unwrap();
        }
        let mut hi = AggState::new(spec);
        for v in &values[split..] {
            hi.update(Some(v), ranks.as_ref()).unwrap();
        }
        lo.merge(hi).unwrap();
        (whole.finish(), lo.finish())
    }

    /// Every aggregate kind, every input flavour it can merge exactly
    /// over, every split point (including empty partials on either side):
    /// merged partials must equal one sequential pass bit-for-bit.
    #[test]
    fn agg_state_merge_matches_sequential_per_kind() {
        let ints: Vec<Value> = [3i64, 1, 4, 1, 5, 9, 2, 6]
            .iter()
            .map(|&i| Value::Int(i))
            .collect();
        let texts: Vec<Value> = ["algebra-mango", "algebra-apple", "algebra-pear"]
            .iter()
            .map(|&s| Value::text(s))
            .collect();
        let floats: Vec<Value> = [2.5f64, -1.25, 7.75]
            .iter()
            .map(|&f| Value::Float(f))
            .collect();
        let with_nulls: Vec<Value> = vec![Value::Int(4), Value::Null, Value::Int(6), Value::Null];
        let all_nulls: Vec<Value> = vec![Value::Null, Value::Null];
        let cases: Vec<(AggFunc, &Vec<Value>)> = vec![
            (AggFunc::Count, &ints),
            (AggFunc::Sum, &ints),
            (AggFunc::Avg, &ints),
            (AggFunc::Min, &ints),
            (AggFunc::Max, &ints),
            (AggFunc::Min, &texts),
            (AggFunc::Max, &texts),
            (AggFunc::Min, &floats),
            (AggFunc::Max, &floats),
            (AggFunc::Count, &with_nulls),
            (AggFunc::Sum, &with_nulls),
            (AggFunc::Avg, &with_nulls),
            (AggFunc::Sum, &all_nulls),
            (AggFunc::Min, &all_nulls),
        ];
        for (func, vals) in cases {
            let spec = AggSpec::new(func, Some(0), "x");
            for split in 0..=vals.len() {
                let (want, got) = seq_vs_merged(&spec, vals, split);
                assert_eq!(want, got, "{func:?} over {vals:?} split at {split}");
            }
        }
    }

    #[test]
    fn agg_state_merge_rejects_kind_mismatch() {
        let mut count = AggState::new(&AggSpec::count_star("n"));
        let sum = AggState::new(&AggSpec::new(AggFunc::Sum, Some(0), "s"));
        assert!(count.merge(sum).is_err());
    }

    /// Integer sums accumulate exactly in `i128` and saturate (never wrap)
    /// when the total leaves the `i64` value domain.
    #[test]
    fn int_sum_is_exact_and_saturating() {
        let spec = AggSpec::new(AggFunc::Sum, Some(0), "s");
        let ranks: Option<&crate::intern::RankMap> = None;
        let mut s = AggState::new(&spec);
        s.update(Some(&Value::Int(i64::MAX)), ranks).unwrap();
        s.update(Some(&Value::Int(i64::MAX)), ranks).unwrap();
        s.update(Some(&Value::Int(1)), ranks).unwrap();
        assert_eq!(s.finish(), Value::Int(i64::MAX));
        let mut s = AggState::new(&spec);
        s.update(Some(&Value::Int(i64::MIN)), ranks).unwrap();
        s.update(Some(&Value::Int(-1)), ranks).unwrap();
        assert_eq!(s.finish(), Value::Int(i64::MIN));
    }

    /// Merging partial group tables in chunk order preserves
    /// first-occurrence group order, exactly as a sequential pass over the
    /// concatenated inputs would produce.
    #[test]
    fn group_acc_merges_partials_in_first_occurrence_order() {
        let specs = [AggSpec::count_star("n")];
        let cols = [RelColumn::bare("k", DataType::Int)];
        let feed = |keys: &[i64]| {
            let mut acc = GroupAcc::new(&[0], &specs, None);
            for &k in keys {
                acc.update(|_| Value::Int(k)).unwrap();
            }
            acc
        };
        let mut acc = feed(&[7, 3]);
        acc.merge(feed(&[5, 3, 7])).unwrap();
        let out = acc.finish(group_output_columns(&cols, &[0], &specs));
        assert_eq!(
            out.rows,
            vec![
                vec![Value::Int(7), Value::Int(2)],
                vec![Value::Int(3), Value::Int(2)],
                vec![Value::Int(5), Value::Int(1)],
            ]
        );
    }

    /// Key-less (global) aggregation merges across empty and non-empty
    /// partials, and an all-empty merge still yields the single implicit
    /// group.
    #[test]
    fn group_acc_merges_global_and_empty_partials() {
        let specs = [AggSpec::new(AggFunc::Sum, Some(0), "s")];
        let cols = [RelColumn::bare("v", DataType::Int)];
        let mut acc = GroupAcc::new(&[], &specs, None);
        acc.merge(GroupAcc::new(&[], &specs, None)).unwrap();
        let mut part = GroupAcc::new(&[], &specs, None);
        part.update(|_| Value::Int(41)).unwrap();
        part.update(|_| Value::Int(1)).unwrap();
        acc.merge(part).unwrap();
        let out = acc.finish(group_output_columns(&cols, &[], &specs));
        assert_eq!(out.rows, vec![vec![Value::Int(42)]]);

        let empty = GroupAcc::new(&[], &specs, None);
        let out = empty.finish(group_output_columns(&cols, &[], &specs));
        assert_eq!(out.rows, vec![vec![Value::Null]]);
    }
}
