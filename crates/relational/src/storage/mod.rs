//! Disk-resident columnar storage: a versioned binary table format plus
//! the save/open entry points behind [`Database::save`] and
//! [`Database::open`].
//!
//! A saved database is a directory: one `MANIFEST.etb` mapping table names
//! to table files, and one `t<index>.etb` per table (index = position in
//! the catalog's deterministic order). Every file is magic + version +
//! checksummed, length-prefixed segments ([`format`]).
//!
//! `open` reads and checksums every segment, then decodes all of them —
//! schema, string arena and every column — before it returns: an opened
//! database is entirely in memory, and nothing touches the files again.
//! Any truncation, magic/version mismatch, bit flip, or checksum-valid
//! segment whose contents do not decode surfaces at `open` as a typed
//! [`crate::Error::Storage`] naming the offending path and segment —
//! never a panic, and never later on a read.
//!
//! Symbols rehydrate deterministically: each table file carries its own
//! string arena (distinct strings in first-use order), re-interned in
//! order at open through one bulk arena-lock acquisition
//! ([`crate::intern::intern_all`]).

pub mod codec;
pub mod format;
pub mod spill;

pub use format::{FORMAT_VERSION, MANIFEST_FILE};

use crate::database::Database;
use crate::intern::intern_all;
use crate::table::{ColumnStore, Table};
use crate::{Error, Result};
use format::{
    decode_arena, decode_column, decode_manifest, decode_schema, encode_manifest, encode_table,
    manifest_segment_name, scan_file, table_segment_name, MAGIC_MANIFEST, MAGIC_TABLE,
};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Saves every table of `db` under `dir` (created if missing): one
/// `t<index>.etb` per table in catalog order plus the manifest. Existing
/// files of the same names are overwritten; the write is deterministic,
/// so saving the same database twice produces byte-identical files.
pub fn save_database(db: &Database, dir: &Path) -> Result<()> {
    fs::create_dir_all(dir)
        .map_err(|e| Error::Storage(format!("{}: cannot create: {e}", dir.display())))?;
    let mut entries = Vec::new();
    for (i, table) in db.tables().enumerate() {
        let file = format!("t{i}.etb");
        let path = dir.join(&file);
        fs::write(&path, encode_table(table))
            .map_err(|e| Error::Storage(format!("{}: write failed: {e}", path.display())))?;
        entries.push((table.schema().name.clone(), file));
    }
    let mpath = dir.join(MANIFEST_FILE);
    fs::write(&mpath, encode_manifest(&entries))
        .map_err(|e| Error::Storage(format!("{}: write failed: {e}", mpath.display())))?;
    Ok(())
}

/// Opens a database saved by [`save_database`], verifying every checksum
/// and decoding every column now.
pub fn open_database(dir: &Path) -> Result<Database> {
    let mpath = dir.join(MANIFEST_FILE);
    let payloads = scan_file(&mpath, MAGIC_MANIFEST, manifest_segment_name)?;
    if payloads.len() != 1 {
        return Err(Error::Storage(format!(
            "{}: expected exactly one segment, found {}",
            mpath.display(),
            payloads.len()
        )));
    }
    let mctx = format!("{}: manifest segment", mpath.display());
    let entries = decode_manifest(&payloads[0], &mctx)?;
    let mut tables = BTreeMap::new();
    for (name, file) in entries {
        let tpath = dir.join(&file);
        let table = open_table(&tpath)?;
        if table.schema().name != name {
            return Err(Error::Storage(format!(
                "{}: holds table `{}` but the manifest maps it to `{name}`",
                tpath.display(),
                table.schema().name
            )));
        }
        if tables.insert(name.clone(), table).is_some() {
            return Err(Error::Storage(format!("{mctx}: duplicate table `{name}`")));
        }
    }
    Ok(Database::from_tables(tables))
}

fn open_table(path: &Path) -> Result<Table> {
    let payloads = scan_file(path, MAGIC_TABLE, table_segment_name)?;
    let seg_ctx = |i: usize| format!("{}: {}", path.display(), table_segment_name(i));
    if payloads.len() < 2 {
        return Err(Error::Storage(format!(
            "{}: only {} segment(s); a table file needs schema + arena + columns",
            path.display(),
            payloads.len()
        )));
    }
    let (schema, rows, pk_order) = decode_schema(&payloads[0], &seg_ctx(0))?;
    if payloads.len() != 2 + schema.arity() {
        return Err(Error::Storage(format!(
            "{}: {} segment(s) for {} schema column(s) (expected {})",
            path.display(),
            payloads.len(),
            schema.arity(),
            2 + schema.arity()
        )));
    }
    let syms = intern_all(&decode_arena(&payloads[1], &seg_ctx(1))?);
    let cols = schema
        .columns
        .iter()
        .zip(payloads.into_iter().skip(2))
        .enumerate()
        .map(|(ci, (col, payload))| {
            let ctx = format!("{} (`{}.{}`)", seg_ctx(2 + ci), schema.name, col.name);
            let (data, nulls) = decode_column(&payload, &ctx, col.data_type, rows, &syms)?;
            Ok(ColumnStore::from_parts(data, nulls, rows))
        })
        .collect::<Result<Vec<_>>>()?;
    // The table's constructor checks the schema and proves the stored PK
    // order strictly ascending (which is the uniqueness proof).
    Table::from_parts(schema, cols, rows, pk_order)
        .map_err(|e| Error::Storage(format!("{}: {}", seg_ctx(0), e.message())))
}
