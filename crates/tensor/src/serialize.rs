//! Checkpointing: saving and loading a [`ParamStore`] to a simple,
//! self-describing binary format.
//!
//! Format (little-endian):
//! ```text
//! magic "ATPS1\n" | u32 param_count |
//!   per param: u32 name_len | name bytes | u32 group | u32 rows | u32 cols |
//!              rows*cols f32 values
//! ```
//! The format stores parameter *names* so a checkpoint can be validated
//! against the model that loads it: loading fails loudly on any mismatch
//! in count, name, group, or shape — silently mis-binding weights is the
//! failure mode this guards against.

//! ```
//! use adaptraj_tensor::serialize::{load_params, save_params};
//! use adaptraj_tensor::{GroupId, ParamStore, Tensor};
//!
//! let mut a = ParamStore::new();
//! a.register("w", Tensor::row(&[1.0, 2.0]), GroupId::DEFAULT);
//! let mut bytes = Vec::new();
//! save_params(&a, &mut bytes).unwrap();
//!
//! let mut b = ParamStore::new();
//! b.register("w", Tensor::row(&[0.0, 0.0]), GroupId::DEFAULT);
//! load_params(&mut b, &mut bytes.as_slice()).unwrap();
//! assert_eq!(b.snapshot(), a.snapshot());
//! ```

use crate::param::{GroupId, ParamStore};
use crate::tensor::Tensor;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 6] = b"ATPS1\n";

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    Io(io::Error),
    /// The file is not an ATPS1 checkpoint.
    BadMagic,
    /// Parameter metadata does not match the receiving store.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not an ATPS1 checkpoint"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Serializes every parameter of `store` to `writer`.
pub fn save_params(store: &ParamStore, writer: &mut impl Write) -> Result<(), CheckpointError> {
    writer.write_all(MAGIC)?;
    write_u32(writer, store.len() as u32)?;
    for id in store.ids() {
        let name = store.name(id).as_bytes();
        write_u32(writer, name.len() as u32)?;
        writer.write_all(name)?;
        write_u32(writer, store.group(id).0)?;
        let t = store.value(id);
        write_u32(writer, t.rows() as u32)?;
        write_u32(writer, t.cols() as u32)?;
        for &v in t.data() {
            writer.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Loads a checkpoint into an existing store built by the *same* model
/// constructor. Every parameter's name, group, and shape must match.
pub fn load_params(store: &mut ParamStore, reader: &mut impl Read) -> Result<(), CheckpointError> {
    let mut magic = [0u8; 6];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let count = read_u32(reader)? as usize;
    if count != store.len() {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint has {count} params, model has {}",
            store.len()
        )));
    }
    for id in store.ids().collect::<Vec<_>>() {
        let name_len = read_u32(reader)? as usize;
        let mut name = vec![0u8; name_len];
        reader.read_exact(&mut name)?;
        let name = String::from_utf8_lossy(&name).into_owned();
        if name != store.name(id) {
            return Err(CheckpointError::Mismatch(format!(
                "param name '{}' expected, checkpoint has '{name}'",
                store.name(id)
            )));
        }
        let group = GroupId(read_u32(reader)?);
        if group != store.group(id) {
            return Err(CheckpointError::Mismatch(format!(
                "param '{name}': group {:?} expected, checkpoint has {group:?}",
                store.group(id)
            )));
        }
        let rows = read_u32(reader)? as usize;
        let cols = read_u32(reader)? as usize;
        if (rows, cols) != store.value(id).shape() {
            return Err(CheckpointError::Mismatch(format!(
                "param '{name}': shape {:?} expected, checkpoint has {rows}x{cols}",
                store.value(id).shape()
            )));
        }
        let mut data = vec![0.0f32; rows * cols];
        for v in &mut data {
            let mut buf = [0u8; 4];
            reader.read_exact(&mut buf)?;
            *v = f32::from_le_bytes(buf);
        }
        *store.value_mut(id) = Tensor::from_vec(rows, cols, data).into_shared();
    }
    Ok(())
}

/// Convenience: save to a file path (buffered).
pub fn save_params_to_file(
    store: &ParamStore,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    save_params(store, &mut w)?;
    w.flush()?;
    Ok(())
}

/// Convenience: load from a file path (buffered).
pub fn load_params_from_file(
    store: &mut ParamStore,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    let mut r = io::BufReader::new(std::fs::File::open(path)?);
    load_params(store, &mut r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn sample_store(seed: u64) -> ParamStore {
        let mut rng = Rng::seed_from(seed);
        let mut store = ParamStore::new();
        store.register(
            "layer0.w",
            Tensor::randn(3, 4, 0.0, 1.0, &mut rng),
            GroupId(0),
        );
        store.register(
            "layer0.b",
            Tensor::randn(1, 4, 0.0, 1.0, &mut rng),
            GroupId(0),
        );
        store.register(
            "head.w",
            Tensor::randn(4, 2, 0.0, 1.0, &mut rng),
            GroupId(2),
        );
        store
    }

    #[test]
    fn round_trip_preserves_values() {
        let src = sample_store(1);
        let mut buf = Vec::new();
        save_params(&src, &mut buf).unwrap();
        let mut dst = sample_store(2); // different values, same structure
        assert_ne!(dst.snapshot(), src.snapshot());
        load_params(&mut dst, &mut buf.as_slice()).unwrap();
        assert_eq!(dst.snapshot(), src.snapshot());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut dst = sample_store(0);
        let err = load_params(&mut dst, &mut b"NOTAPS\x00\x00".as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic));
    }

    #[test]
    fn rejects_param_count_mismatch() {
        let src = sample_store(1);
        let mut buf = Vec::new();
        save_params(&src, &mut buf).unwrap();
        let mut small = ParamStore::new();
        small.register("layer0.w", Tensor::zeros(3, 4), GroupId(0));
        let err = load_params(&mut small, &mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    }

    #[test]
    fn rejects_shape_mismatch() {
        let src = sample_store(1);
        let mut buf = Vec::new();
        save_params(&src, &mut buf).unwrap();
        let mut rng = Rng::seed_from(9);
        let mut wrong = ParamStore::new();
        wrong.register(
            "layer0.w",
            Tensor::randn(3, 5, 0.0, 1.0, &mut rng),
            GroupId(0),
        );
        wrong.register(
            "layer0.b",
            Tensor::randn(1, 4, 0.0, 1.0, &mut rng),
            GroupId(0),
        );
        wrong.register(
            "head.w",
            Tensor::randn(4, 2, 0.0, 1.0, &mut rng),
            GroupId(2),
        );
        let err = load_params(&mut wrong, &mut buf.as_slice()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("shape"), "{msg}");
    }

    #[test]
    fn rejects_name_mismatch() {
        let src = sample_store(1);
        let mut buf = Vec::new();
        save_params(&src, &mut buf).unwrap();
        let mut rng = Rng::seed_from(9);
        let mut wrong = ParamStore::new();
        wrong.register(
            "renamed.w",
            Tensor::randn(3, 4, 0.0, 1.0, &mut rng),
            GroupId(0),
        );
        wrong.register(
            "layer0.b",
            Tensor::randn(1, 4, 0.0, 1.0, &mut rng),
            GroupId(0),
        );
        wrong.register(
            "head.w",
            Tensor::randn(4, 2, 0.0, 1.0, &mut rng),
            GroupId(2),
        );
        let err = load_params(&mut wrong, &mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("name"), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("adaptraj_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.atps");
        let src = sample_store(3);
        save_params_to_file(&src, &path).unwrap();
        let mut dst = sample_store(4);
        let loaded = load_params_from_file(&mut dst, &path);
        std::fs::remove_dir_all(&dir).ok();
        loaded.unwrap();
        assert_eq!(dst.snapshot(), src.snapshot());
    }

    #[test]
    fn truncated_file_fails_cleanly() {
        let src = sample_store(1);
        let mut buf = Vec::new();
        save_params(&src, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let mut dst = sample_store(2);
        assert!(load_params(&mut dst, &mut buf.as_slice()).is_err());
    }
}
