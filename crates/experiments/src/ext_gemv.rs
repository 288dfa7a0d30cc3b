//! Extension experiment: input-dependent power under **GEMV** — the
//! memory-bound LLM-decode workload the paper's introduction motivates.
//!
//! The paper studies GEMM (compute-bound at 2048²). During LLM decode,
//! the same weights flow through GEMV with no tile reuse, so the power
//! budget shifts from datapath latches to the DRAM interface. This
//! experiment replays the paper's sparsity and sorting sweeps under GEMV
//! and reports how the effect sizes change — the shape a practitioner
//! needs before applying §V-style transforms to serving workloads.

use crate::common::*;
use wm_kernels::KernelClass;

const SWEEP: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];

fn sweep_figure(
    profile: &RunProfile,
    id: &str,
    title: &str,
    x_label: &str,
    kind: fn(f64) -> PatternKind,
) -> FigureResult {
    let mut points = Vec::new();
    for &dtype in &DType::ALL {
        for &x in &profile.thin(&SWEEP) {
            points.push(SweepPoint {
                series: dtype.label().to_string(),
                x,
                request: profile
                    .request(dtype, PatternSpec::new(kind(x)))
                    .with_kernel(KernelClass::Gemv),
                gpu: a100_pcie(),
                metric: Metric::PowerW,
            });
        }
    }
    FigureResult {
        id: id.into(),
        title: title.into(),
        x_label: x_label.into(),
        y_label: "power (W)".into(),
        notes: vec![
            "Extension (not a paper figure): GEMV is memory-bound, so power \
             sits far below the GEMM levels and input effects ride mostly on \
             DRAM bus toggles."
                .into(),
        ],
        series: collect_series(&execute(points)),
    }
}

/// Execute the GEMV extension sweeps.
pub fn run(profile: &RunProfile) -> Vec<FigureResult> {
    vec![
        sweep_figure(
            profile,
            "ext_gemv_sparsity",
            "Extension: GEMV sparsity vs. power",
            "sparsity",
            |s| PatternKind::Sparse { sparsity: s },
        ),
        sweep_figure(
            profile,
            "ext_gemv_sorted",
            "Extension: GEMV sorting vs. power",
            "fraction sorted",
            |f| PatternKind::SortedRows { fraction: f },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_core::{PowerLab, RunRequest};

    #[test]
    fn gemv_trends_match_gemm_directions() {
        let figs = run(&RunProfile::TEST);
        assert_eq!(figs.len(), 2);
        for fig in &figs {
            for s in &fig.series {
                let first = s.points.first().unwrap().y;
                let last = s.points.last().unwrap().y;
                assert!(
                    last < first,
                    "{} / {}: effect should reduce power ({first} -> {last})",
                    fig.id,
                    s.name
                );
            }
        }
    }

    #[test]
    fn gemv_power_sits_below_gemm_power() {
        let req = RunRequest::new(
            DType::Fp16Tensor,
            1024,
            PatternSpec::new(PatternKind::Gaussian),
        )
        .with_seeds(1)
        .with_kernel(KernelClass::Gemv);
        let gemv = PowerLab::new(a100_pcie()).run(&req).power.mean;
        // GEMM at the same size draws well over 200 W (see wm-power
        // calibration); memory-bound GEMV stays far below.
        assert!(gemv < 200.0, "GEMV power {gemv} implausibly high");
        assert!(gemv > 80.0, "GEMV power {gemv} implausibly low");
    }
}
