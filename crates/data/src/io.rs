//! Trajectory dataset export: a plain CSV format.
//!
//! `adaptraj synthesize --out FILE` writes a synthesized training split
//! here for external analysis; nothing in this workspace reads it back.
//! One row per (window, agent, step):
//!
//! ```text
//! window_id,domain,agent,step,x,y
//! ```
//!
//! `agent` 0 is the focal agent (steps `0..T_TOTAL`, observation then
//! future); agents `1..` are neighbors (steps `0..T_OBS`). Coordinates are
//! in the window's normalized frame. The window's world origin is emitted
//! as a synthetic `agent = -1, step = 0` row so exports are lossless.

use crate::trajectory::TrajWindow;
use std::io::{self, Write};

/// Writes windows as CSV, buffered: one row is several small writes, so
/// an unbuffered `File` would cost a system call each. The buffer is
/// flushed before returning, so a failed flush is this call's error.
pub fn write_csv(windows: &[TrajWindow], writer: &mut impl Write) -> io::Result<()> {
    let mut writer = io::BufWriter::new(writer);
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
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainId;
    use crate::trajectory::{Point, T_OBS, T_TOTAL};

    /// Pins the exported bytes of a one-window, one-neighbour scene: the
    /// header, the origin row, 20 focal rows and 8 neighbour rows.
    #[test]
    fn write_csv_emits_header_origin_focal_and_neighbor_rows() {
        let focal: Vec<Point> = (0..T_TOTAL).map(|t| [t as f32 * 0.5, 1.0]).collect();
        let neighbor: Vec<Point> = (0..T_OBS).map(|t| [t as f32, 3.0]).collect();
        let w = TrajWindow::from_world(&focal, &[neighbor], DomainId::Sdd);
        let mut csv = Vec::new();
        write_csv(&[w], &mut csv).unwrap();
        let expected = "\
window_id,domain,agent,step,x,y
0,sdd,-1,0,3.5,1
0,sdd,0,0,-3.5,0
0,sdd,0,1,-3,0
0,sdd,0,2,-2.5,0
0,sdd,0,3,-2,0
0,sdd,0,4,-1.5,0
0,sdd,0,5,-1,0
0,sdd,0,6,-0.5,0
0,sdd,0,7,0,0
0,sdd,0,8,0.5,0
0,sdd,0,9,1,0
0,sdd,0,10,1.5,0
0,sdd,0,11,2,0
0,sdd,0,12,2.5,0
0,sdd,0,13,3,0
0,sdd,0,14,3.5,0
0,sdd,0,15,4,0
0,sdd,0,16,4.5,0
0,sdd,0,17,5,0
0,sdd,0,18,5.5,0
0,sdd,0,19,6,0
0,sdd,1,0,-3.5,2
0,sdd,1,1,-2.5,2
0,sdd,1,2,-1.5,2
0,sdd,1,3,-0.5,2
0,sdd,1,4,0.5,2
0,sdd,1,5,1.5,2
0,sdd,1,6,2.5,2
0,sdd,1,7,3.5,2
";
        assert_eq!(String::from_utf8(csv).unwrap(), expected);
    }
}
