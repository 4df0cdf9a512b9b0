//! `adaptraj synthesize --out FILE` writes the training split exactly as
//! `write_csv` renders it in memory.

use adaptraj::data::dataset::{synthesize_domain, SynthesisConfig};
use adaptraj::data::domain::DomainId;
use adaptraj::data::io::write_csv;
use std::process::Command;

#[test]
fn synthesize_out_writes_the_in_memory_csv_of_the_training_split() {
    let path = std::env::temp_dir().join(format!("adaptraj_synthesize_{}.csv", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_adaptraj"))
        .args(["synthesize", "--domain", "sdd", "--scenes", "2", "--out"])
        .arg(&path)
        .output()
        .unwrap();
    let written = std::fs::read(&path);
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let cfg = SynthesisConfig {
        scenes: 2,
        ..SynthesisConfig::default()
    };
    let train = synthesize_domain(DomainId::Sdd, &cfg).train;
    assert!(!train.is_empty());
    let mut expected = Vec::new();
    write_csv(&train, &mut expected).unwrap();
    assert!(written.unwrap() == expected, "exported CSV differs");
}
