#include "ivnet/signal/envelope.hpp"

#include <algorithm>
#include <cmath>

namespace ivnet {

void envelope(const Waveform& wave, std::vector<double>& out) {
  out.resize(wave.samples.size());
  for (std::size_t i = 0; i < wave.samples.size(); ++i) {
    out[i] = std::abs(wave.samples[i]);
  }
}

std::vector<double> envelope(const Waveform& wave) {
  std::vector<double> env;
  envelope(wave, env);
  return env;
}

double max_value(std::span<const double> env) {
  return env.empty() ? 0.0 : *std::max_element(env.begin(), env.end());
}

}  // namespace ivnet
