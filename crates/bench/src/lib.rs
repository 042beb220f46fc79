//! Experiment harness regenerating every table and figure of the
//! PASTA-on-Edge paper.
//!
//! Each binary under `src/bin/` reproduces one artifact:
//!
//! | binary                 | paper artifact                        |
//! |------------------------|---------------------------------------|
//! | `table1_fpga_area`     | Tab. I (FPGA LUT/FF/DSP)              |
//! | `table2_performance`   | Tab. II (cycles + µs per platform)    |
//! | `table3_comparison`    | Tab. III (vs prior client accelerators)|
//! | `fig7_area_breakdown`  | Fig. 7 (module-wise area)             |
//! | `fig8_video_frames`    | Fig. 8 (video frames/s vs RISE)       |
//! | `analysis_mulcount`    | §I.A multiplication-count analysis    |
//! | `analysis_keccak`      | §IV.B Keccak-budget analysis          |
//!
//! The `bench_*` binaries record host wall-clock of the software hot
//! paths as `BENCH_*.json` through [`report`]; the end-to-end service
//! benchmark is the separate `perfbench/` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod priorwork;
pub mod report;
