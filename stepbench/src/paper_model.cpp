#include "paper_model.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "math/rng.hpp"
#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "pic/efield.hpp"
#include "pic/poisson.hpp"

namespace stepbench {

using namespace dlpic;

namespace {

constexpr size_t kHidden = 1024;
constexpr size_t kDepth = 3;

// Holds the ReLU of every row from `first_off` on at zero: with inputs in
// [0, 1], sum_k |w_ik| bounds the pre-activation, so a bias one below its
// negative keeps it negative whatever the input.
void hold_rows_off(nn::Dense& layer, size_t first_off) {
  const size_t in = layer.in_features();
  const double* w = layer.weight().data();
  double* b = layer.bias().data();
  for (size_t i = first_off; i < layer.out_features(); ++i) {
    double bound = 0.0;
    for (size_t k = 0; k < in; ++k) bound += std::abs(w[i * in + k]);
    b[i] = -bound - 1.0;
  }
}

}  // namespace

PaperModel build_paper_model(const pic::SimulationConfig& config, uint64_t seed) {
  const size_t n = config.ncells;
  phase_space::BinnerConfig binner;  // paper: 64 x 64 over v in [-0.65, 0.65]
  binner.length = config.length;
  if (binner.nx != n)
    throw std::invalid_argument("build_paper_model: binner columns must equal grid cells");
  const size_t nv = binner.nv;
  const size_t input_dim = binner.nx * nv;

  // x = count / N keeps every normalized bin in [0, 1] (no bin can hold
  // more than all N particles), which the ReLU bounds above rely on.
  const double particles = static_cast<double>(config.total_particles());
  data::MinMaxNormalizer normalizer(0.0, particles);
  const double range = normalizer.max() - normalizer.min();

  math::Rng rng(seed);
  std::vector<std::unique_ptr<nn::Dense>> layers;
  size_t in = input_dim;
  for (size_t d = 0; d < kDepth; ++d) {
    layers.push_back(std::make_unique<nn::Dense>(in, kHidden, rng));
    in = kHidden;
  }
  layers.push_back(std::make_unique<nn::Dense>(in, n, rng, /*linear_output=*/true));

  // Layer 1: node i sits between position columns i-1 and i.
  {
    nn::Dense& l1 = *layers[0];
    double* w = l1.weight().data();
    for (size_t i = 0; i < n; ++i) {
      double* row = w + i * input_dim;
      for (size_t k = 0; k < input_dim; ++k) row[k] = 0.0;
      const size_t left = (i + n - 1) % n;
      for (size_t iv = 0; iv < nv; ++iv) {
        row[iv * binner.nx + left] = 0.5;
        row[iv * binner.nx + i] = 0.5;
      }
      l1.bias().data()[i] = 0.0;
    }
    hold_rows_off(l1, n);
  }
  // Layers 2-3: identity on the physics lanes. Their weights on the held-off
  // lanes keep the He values; those lanes carry exact zeros.
  for (size_t d = 1; d < kDepth; ++d) {
    nn::Dense& l = *layers[d];
    double* w = l.weight().data();
    for (size_t i = 0; i < n; ++i) {
      for (size_t k = 0; k < n; ++k) w[i * kHidden + k] = (i == k) ? 1.0 : 0.0;
      l.bias().data()[i] = 0.0;
    }
    hold_rows_off(l, n);
  }
  // Layer 4: column i is E on the grid for one particle's charge at node i.
  {
    nn::Dense& out = *layers[kDepth];
    double* w = out.weight().data();
    const pic::Grid1D grid(n, config.length);
    const double q = -config.length / particles;  // as pic::Species::electrons
    auto solver = pic::make_poisson_solver("spectral");
    std::vector<double> rho(n), phi(n), E(n);
    for (size_t i = 0; i < n; ++i) {
      rho.assign(n, 0.0);
      rho[i] = q / grid.dx();
      solver->solve(grid, rho, phi);
      pic::efield_from_phi(grid, phi, E);
      for (size_t j = 0; j < n; ++j) w[j * kHidden + i] = E[j] * range;
    }
    for (size_t j = 0; j < n; ++j) out.bias().data()[j] = 0.0;
  }

  nn::Sequential model;
  for (size_t d = 0; d < kDepth; ++d) {
    model.add(std::move(layers[d]));
    model.add(std::make_unique<nn::ReLU>());
  }
  model.add(std::move(layers[kDepth]));
  return PaperModel{std::move(model), normalizer, binner};
}

ForwardWork forward_work(const nn::Sequential& model) {
  ForwardWork work;
  for (size_t i = 0; i < model.layer_count(); ++i) {
    if (const auto* dense = dynamic_cast<const nn::Dense*>(&model.layer(i)))
      work.weights += static_cast<double>(dense->in_features() * dense->out_features());
  }
  work.flop_per_sample = 2.0 * work.weights;
  return work;
}

}  // namespace stepbench
