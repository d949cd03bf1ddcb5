#include "ivnet/media/layered.hpp"

#include <cassert>
#include <cmath>
#include <utility>

#include "ivnet/common/units.hpp"

namespace ivnet {

LayeredMedium::LayeredMedium(Medium outer) : outer_(std::move(outer)) {}

LayeredMedium& LayeredMedium::add_layer(Medium medium, double thickness_m) {
  assert(thickness_m >= 0.0);
  layers_.push_back(Layer{std::move(medium), thickness_m});
  return *this;
}

double LayeredMedium::total_thickness_m() const {
  double total = 0.0;
  for (const auto& layer : layers_) total += layer.thickness_m;
  return total;
}

std::complex<double> LayeredMedium::field_transfer(double freq_hz) const {
  return field_transfer_at_depth(freq_hz, total_thickness_m());
}

std::complex<double> LayeredMedium::field_transfer_at_depth(
    double freq_hz, double depth_m) const {
  std::complex<double> coeff{1.0, 0.0};
  const Medium* previous = &outer_;
  double remaining = depth_m;
  for (const auto& layer : layers_) {
    if (remaining <= 0.0) break;
    coeff *= boundary_transmission(*previous, layer.medium, freq_hz);
    const double travelled = std::min(remaining, layer.thickness_m);
    const double a = layer.medium.alpha(freq_hz);
    const double b = layer.medium.beta(freq_hz);
    coeff *= std::exp(std::complex<double>(-a * travelled, -b * travelled));
    remaining -= travelled;
    previous = &layer.medium;
  }
  if (remaining > 0.0 && !layers_.empty()) {
    // Continue in the last slab's medium (e.g. deeper into stomach contents).
    const Medium& last = layers_.back().medium;
    const double a = last.alpha(freq_hz);
    const double b = last.beta(freq_hz);
    coeff *= std::exp(std::complex<double>(-a * remaining, -b * remaining));
  }
  return coeff;
}

double LayeredMedium::total_loss_db(double freq_hz) const {
  const double mag = std::abs(field_transfer(freq_hz));
  if (mag <= 0.0) return 300.0;  // effectively opaque
  return -amplitude_to_db(mag);
}

const Medium& LayeredMedium::medium_at_depth(double depth_m) const {
  assert(!layers_.empty());
  double cursor = 0.0;
  for (const auto& layer : layers_) {
    cursor += layer.thickness_m;
    if (depth_m <= cursor) return layer.medium;
  }
  return layers_.back().medium;
}

LayeredMedium swine_subcutaneous_stack() {
  LayeredMedium stack(media::air());
  stack.add_layer(media::skin(), 0.004).add_layer(media::fat(), 0.004);
  return stack;
}

}  // namespace ivnet
