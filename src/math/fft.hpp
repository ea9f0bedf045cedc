#pragma once
/// \file fft.hpp
/// Complex FFT and real-signal helpers.
///
/// Used by (a) the spectral Poisson solver on the periodic PIC grid and
/// (b) the per-mode electric-field amplitude diagnostic (|E_k|, the paper's
/// Fig. 4 E1 series). Every size runs in O(n log n) through the plan-based
/// engine in fft_plan.hpp (radix-4/radix-2 Cooley–Tukey for powers of two,
/// Bluestein otherwise), with the vector-in/vector-out entry points below
/// kept for convenience. Hot paths that transform the same size every step
/// should hold a plan (math::get_fft_plan) and use its rfft/irfft directly.

#include <complex>
#include <vector>

namespace dlpic::math {

using cplx = std::complex<double>;

/// In-place forward FFT (engineering sign convention, e^{-i 2π kn/N}) of
/// any size, via the interned plan for data.size().
void fft(std::vector<cplx>& data);

/// In-place inverse FFT including the 1/N normalization.
void ifft(std::vector<cplx>& data);

/// Amplitude of harmonic `mode` of a real signal, normalized so that
/// x[n] = A cos(2π·mode·n/N + φ) gives amplitude(mode) == A. Single-bin
/// Goertzel recurrence: O(n), no transform, no allocation at any size.
double mode_amplitude(const std::vector<double>& signal, size_t mode);

/// Direct O(n²) DFT from the definition (sign per `inverse`, inverse
/// includes the 1/n normalization). The correctness reference the plan
/// engine is tested against — not a fallback path anymore.
std::vector<cplx> dft_reference(const std::vector<cplx>& data, bool inverse);

/// True when n is a power of two (n >= 1).
bool is_pow2(size_t n);

}  // namespace dlpic::math
