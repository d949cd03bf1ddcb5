#include "ivnet/harvester/rectifier.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ivnet {

Rectifier::Rectifier(int stages, Diode diode)
    : stages_(stages), diode_(std::move(diode)) {
  assert(stages_ >= 1);
}

double Rectifier::open_circuit_vdc(double vs) const {
  const double headroom = vs - diode_.turn_on_voltage();
  if (headroom <= 0.0) return 0.0;
  return static_cast<double>(stages_) * headroom;
}

double Rectifier::efficiency(double vs) const {
  const double vth = diode_.turn_on_voltage();
  if (vs <= vth || vs <= 0.0) return 0.0;
  const double ratio = (vs - vth) / vs;
  return ratio * ratio;
}

}  // namespace ivnet
