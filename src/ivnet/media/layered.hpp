// Layered media stacks — the inhomogeneous in-vivo channel of Sec. 3.1
// ("signals traverse different media, including multiple layers of tissues").
//
// A LayeredMedium is an ordered list of (medium, thickness) slabs the wave
// crosses after leaving an outer medium (normally air). The stack yields a
// single complex field transfer coefficient: the product of the boundary
// transmissions and the complex propagation factors e^{-(alpha + j*beta)*d}
// of each slab. This is the Eq. 2 model generalized to multiple layers.
#pragma once

#include <complex>
#include <vector>

#include "ivnet/media/medium.hpp"

namespace ivnet {

/// One slab of a layered stack.
struct Layer {
  Medium medium;
  double thickness_m = 0.0;
};

/// An ordered stack of slabs entered from `outer` (typically air).
class LayeredMedium {
 public:
  explicit LayeredMedium(Medium outer = media::air());

  /// Append a slab to the far end of the stack.
  LayeredMedium& add_layer(Medium medium, double thickness_m);

  const Medium& outer() const { return outer_; }
  const std::vector<Layer>& layers() const { return layers_; }

  /// Total geometric thickness of all slabs [m].
  double total_thickness_m() const;

  /// Complex field transfer coefficient through the full stack at `freq_hz`:
  /// product of boundary transmissions (outer->1, 1->2, ...) and in-slab
  /// propagation e^{-(alpha + j*beta)*d}. |coefficient| <= 1 for passive media.
  std::complex<double> field_transfer(double freq_hz) const;

  /// Field transfer up to depth `depth_m` measured from the first boundary;
  /// a partial traversal ending inside a slab. Depth beyond the stack
  /// continues in the final slab's medium.
  std::complex<double> field_transfer_at_depth(double freq_hz,
                                               double depth_m) const;

  /// Total power loss through the full stack [dB] (positive).
  double total_loss_db(double freq_hz) const;

  /// The medium found at `depth_m` from the first boundary (the last slab's
  /// medium if depth exceeds the stack).
  const Medium& medium_at_depth(double depth_m) const;

 private:
  Medium outer_;
  std::vector<Layer> layers_;
};

/// Subcutaneous placement: just skin over a thin fat layer.
LayeredMedium swine_subcutaneous_stack();

}  // namespace ivnet
