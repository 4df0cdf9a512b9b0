//! Trajectory dataset I/O: a plain CSV interchange format.
//!
//! Synthesized datasets can be exported for external analysis and
//! re-imported (e.g. to pin a dataset across library versions, or to load
//! real recordings preprocessed elsewhere into this pipeline). One row per
//! (window, agent, step):
//!
//! ```text
//! window_id,domain,agent,step,x,y
//! ```
//!
//! `agent` 0 is the focal agent (steps `0..T_TOTAL`, observation then
//! future); agents `1..` are neighbors (steps `0..T_OBS`). Coordinates are
//! in the window's normalized frame. The window's world origin is emitted
//! as a synthetic `agent = -1, step = 0` row so exports are lossless.

use crate::domain::DomainId;
use crate::trajectory::{Point, TrajWindow, T_OBS, T_TOTAL};
use std::io::{self, BufRead, Write};

/// Errors from dataset CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    Io(io::Error),
    /// A malformed line, with its 1-based line number.
    Parse(usize, String),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "csv I/O error: {e}"),
            CsvError::Parse(line, msg) => write!(f, "csv parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Writes windows as CSV.
pub fn write_csv(windows: &[TrajWindow], writer: &mut impl Write) -> Result<(), CsvError> {
    writeln!(writer, "window_id,domain,agent,step,x,y")?;
    for (wid, w) in windows.iter().enumerate() {
        let tag = w.domain.tag();
        writeln!(writer, "{wid},{tag},-1,0,{},{}", w.origin[0], w.origin[1])?;
        for (t, p) in w.full_track().iter().enumerate() {
            writeln!(writer, "{wid},{tag},0,{t},{},{}", p[0], p[1])?;
        }
        for (a, nb) in w.neighbors.iter().enumerate() {
            for (t, p) in nb.iter().enumerate() {
                writeln!(writer, "{wid},{tag},{},{t},{},{}", a + 1, p[0], p[1])?;
            }
        }
    }
    Ok(())
}

#[derive(Default)]
struct WindowBuilder {
    domain: Option<DomainId>,
    origin: Point,
    focal: Vec<Option<Point>>,
    neighbors: Vec<Vec<Option<Point>>>,
}

impl WindowBuilder {
    fn build(self, line: usize) -> Result<TrajWindow, CsvError> {
        let domain = self
            .domain
            .ok_or_else(|| CsvError::Parse(line, "window without rows".into()))?;
        let focal: Option<Vec<Point>> = self.focal.into_iter().collect();
        let focal = focal.ok_or_else(|| CsvError::Parse(line, "focal track has gaps".into()))?;
        if focal.len() != T_TOTAL {
            return Err(CsvError::Parse(
                line,
                format!("focal track has {} steps, expected {T_TOTAL}", focal.len()),
            ));
        }
        let mut neighbors = Vec::with_capacity(self.neighbors.len());
        for nb in self.neighbors {
            let nb: Option<Vec<Point>> = nb.into_iter().collect();
            let nb = nb.ok_or_else(|| CsvError::Parse(line, "neighbor track has gaps".into()))?;
            if nb.len() != T_OBS {
                return Err(CsvError::Parse(
                    line,
                    format!("neighbor track has {} steps, expected {T_OBS}", nb.len()),
                ));
            }
            neighbors.push(nb);
        }
        // The CSV stores normalized coordinates; reconstruct the window
        // directly rather than re-normalizing.
        Ok(TrajWindow {
            obs: focal[..T_OBS].to_vec(),
            fut: focal[T_OBS..].to_vec(),
            neighbors,
            domain,
            origin: self.origin,
        })
    }
}

/// Reads windows from CSV produced by [`write_csv`].
pub fn read_csv(reader: &mut impl BufRead) -> Result<Vec<TrajWindow>, CsvError> {
    let mut builders: Vec<WindowBuilder> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with("window_id") {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 6 {
            return Err(CsvError::Parse(
                lineno,
                format!("{} fields, expected 6", fields.len()),
            ));
        }
        let wid: usize = fields[0]
            .parse()
            .map_err(|_| CsvError::Parse(lineno, "bad window_id".into()))?;
        let domain = DomainId::from_tag(fields[1])
            .ok_or_else(|| CsvError::Parse(lineno, format!("unknown domain '{}'", fields[1])))?;
        let agent: i64 = fields[2]
            .parse()
            .map_err(|_| CsvError::Parse(lineno, "bad agent".into()))?;
        let step: usize = fields[3]
            .parse()
            .map_err(|_| CsvError::Parse(lineno, "bad step".into()))?;
        let x: f32 = fields[4]
            .parse()
            .map_err(|_| CsvError::Parse(lineno, "bad x".into()))?;
        let y: f32 = fields[5]
            .parse()
            .map_err(|_| CsvError::Parse(lineno, "bad y".into()))?;

        if builders.len() <= wid {
            builders.resize_with(wid + 1, WindowBuilder::default);
        }
        let b = &mut builders[wid];
        b.domain = Some(domain);
        match agent {
            -1 => b.origin = [x, y],
            0 => {
                if b.focal.len() <= step {
                    b.focal.resize(step + 1, None);
                }
                b.focal[step] = Some([x, y]);
            }
            a if a > 0 => {
                let a = (a - 1) as usize;
                if b.neighbors.len() <= a {
                    b.neighbors.resize(a + 1, Vec::new());
                }
                if b.neighbors[a].len() <= step {
                    b.neighbors[a].resize(step + 1, None);
                }
                b.neighbors[a][step] = Some([x, y]);
            }
            _ => return Err(CsvError::Parse(lineno, format!("bad agent id {agent}"))),
        }
    }
    builders
        .into_iter()
        .enumerate()
        .map(|(i, b)| b.build(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{synthesize_domain, SynthesisConfig};

    fn sample_windows() -> Vec<TrajWindow> {
        let ds = synthesize_domain(DomainId::EthUcy, &SynthesisConfig::smoke());
        ds.train.into_iter().take(5).collect()
    }

    #[test]
    fn round_trip_preserves_windows() {
        let windows = sample_windows();
        let mut buf = Vec::new();
        write_csv(&windows, &mut buf).unwrap();
        let parsed = read_csv(&mut buf.as_slice()).unwrap();
        assert_eq!(parsed.len(), windows.len());
        for (a, b) in windows.iter().zip(&parsed) {
            assert_eq!(a.domain, b.domain);
            assert_eq!(a.obs, b.obs);
            assert_eq!(a.fut, b.fut);
            assert_eq!(a.neighbors, b.neighbors);
            assert_eq!(a.origin, b.origin);
        }
    }

    #[test]
    fn header_and_blank_lines_are_skipped() {
        let windows = sample_windows();
        let mut buf = Vec::new();
        write_csv(&windows, &mut buf).unwrap();
        let with_blanks = format!("\n{}\n\n", String::from_utf8(buf).unwrap());
        let parsed = read_csv(&mut with_blanks.as_bytes()).unwrap();
        assert_eq!(parsed.len(), windows.len());
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let bad = "window_id,domain,agent,step,x,y\n0,eth_ucy,0,notastep,1.0,2.0\n";
        let err = read_csv(&mut bad.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn unknown_domain_is_rejected() {
        let bad = "0,mars,0,0,1.0,2.0\n";
        let err = read_csv(&mut bad.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown domain"), "{err}");
    }

    #[test]
    fn incomplete_focal_track_is_rejected() {
        let mut rows = String::new();
        for t in 0..5 {
            rows.push_str(&format!("0,sdd,0,{t},0.0,0.0\n"));
        }
        let err = read_csv(&mut rows.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("steps"), "{err}");
    }
}
