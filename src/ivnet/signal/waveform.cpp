#include "ivnet/signal/waveform.hpp"

namespace ivnet {

void accumulate(Waveform& out, const Waveform& in, cplx gain) {
  if (out.samples.size() < in.samples.size()) {
    out.samples.resize(in.samples.size(), cplx{0.0, 0.0});
    out.sample_rate_hz = in.sample_rate_hz;
  }
  for (std::size_t i = 0; i < in.samples.size(); ++i) {
    out.samples[i] += gain * in.samples[i];
  }
}

}  // namespace ivnet
