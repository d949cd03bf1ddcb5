#include "ivnet/signal/noise.hpp"

#include <cmath>

#include "ivnet/common/units.hpp"
#include "ivnet/signal/gauss.hpp"

namespace ivnet {

namespace {
/// Boltzmann constant [J/K].
constexpr double kBoltzmann = 1.380'649e-23;
/// Standard noise reference temperature [K].
constexpr double kT0 = 290.0;
}  // namespace

void add_awgn(Waveform& wave, double noise_power, Rng& rng) {
  // The standard guarantees an array of std::complex<double> reads as
  // interleaved doubles (re, im): 2n real lanes, one raw draw per lane.
  signal::axpy_awgn(rng, std::sqrt(noise_power / 2.0),
                    {reinterpret_cast<double*>(wave.samples.data()),
                     2 * wave.samples.size()});
}

double thermal_noise_power(double bandwidth_hz, double noise_figure_db) {
  return kBoltzmann * kT0 * bandwidth_hz * from_db(noise_figure_db);
}

}  // namespace ivnet
