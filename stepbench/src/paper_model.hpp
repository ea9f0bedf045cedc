#pragma once
/// \file paper_model.hpp
/// The paper's MLP field solver (4096 → 3×1024 → 64) with weights that
/// reproduce the Poisson map instead of trained ones, so the DL workloads
/// carry real two-stream physics without a training phase in set-up.

#include <cstdint>

#include "data/normalizer.hpp"
#include "nn/quantize.hpp"
#include "nn/sequential.hpp"
#include "phase_space/binner.hpp"
#include "pic/simulation.hpp"

namespace stepbench {

struct PaperModel {
  dlpic::nn::Sequential model;
  dlpic::data::MinMaxNormalizer normalizer;
  dlpic::phase_space::BinnerConfig binner;
};

/// Builds the paper-shaped MLP for the grid of `config`:
///  - layer 1 maps the histogram's position columns to node counts
///    (weight 1/2 on the two columns that straddle each node);
///  - layers 2 and 3 are the identity on those 64 lanes;
///  - layer 4 is the Green's matrix of the spectral Poisson solve followed
///    by the central-difference gradient, scaled by q/dx and by the
///    normalizer range.
/// Every other weight keeps its He initialisation, behind a bias that holds
/// the ReLU off for any normalized input in [0, 1], so all four matrices
/// stay dense while the output is the physics lanes' alone.
[[nodiscard]] PaperModel build_paper_model(const dlpic::pic::SimulationConfig& config,
                                           uint64_t seed);

/// Work of one forward pass computed from the layer shapes.
struct ForwardWork {
  double weights = 0.0;           ///< GEMM weight elements
  double flop_per_sample = 0.0;   ///< 2 per weight element
  /// Weight bytes streamed per forward pass at `precision` (codes only).
  [[nodiscard]] double weight_bytes(dlpic::nn::Precision precision) const {
    return weights * (precision == dlpic::nn::Precision::kF64    ? 8.0
                      : precision == dlpic::nn::Precision::kInt16 ? 2.0
                                                                  : 1.0);
  }
};
[[nodiscard]] ForwardWork forward_work(const dlpic::nn::Sequential& model);

}  // namespace stepbench
