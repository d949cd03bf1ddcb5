#include "ivnet/sim/scenario.hpp"

#include "ivnet/sim/calibration.hpp"

namespace ivnet {

Scenario air_scenario(double distance_m) {
  Scenario s;
  s.name = "air";
  s.air_distance_m = distance_m;
  s.depth_m = 0.0;
  s.multipath_rays = 1;  // line-of-sight corridor
  return s;
}

Scenario water_tank_scenario(double depth_m, double standoff_m) {
  Scenario s;
  s.name = "water-tank";
  s.air_distance_m = standoff_m;
  s.stack.add_layer(media::water(), depth_m)
      .add_layer(media::air(), calib::kTubeWallOffsetM);
  // Sensor sits in the middle of the tube's air pocket.
  s.depth_m = depth_m + calib::kTubeWallOffsetM / 2.0;
  return s;
}

Scenario medium_block_scenario(const Medium& medium, double depth_m,
                               double standoff_m) {
  Scenario s;
  s.name = medium.name() + "-block";
  s.air_distance_m = standoff_m;
  s.stack.add_layer(medium, depth_m)
      .add_layer(media::air(), calib::kTubeWallOffsetM);
  s.depth_m = depth_m + calib::kTubeWallOffsetM / 2.0;
  return s;
}

Scenario swine_gastric_scenario(double standoff_m, double extra_depth_m) {
  Scenario s;
  s.name = "swine-gastric";
  s.air_distance_m = standoff_m;
  // Abdominal layers of an ~85 kg Yorkshire pig (ventral approach), with
  // placement variation absorbed into the gastric-content path, then the
  // falcon-tube air pocket.
  s.stack.add_layer(media::skin(), 0.004)
      .add_layer(media::fat(), 0.025)
      .add_layer(media::muscle(), 0.020)
      .add_layer(media::stomach_wall(), 0.006)
      .add_layer(media::stomach_contents(), 0.030 + extra_depth_m)
      .add_layer(media::air(), calib::kTubeWallOffsetM);
  s.depth_m = s.stack.total_thickness_m() - calib::kTubeWallOffsetM / 2.0;
  return s;
}

Scenario swine_subcutaneous_scenario(double standoff_m) {
  Scenario s;
  s.name = "swine-subcutaneous";
  s.air_distance_m = standoff_m;
  s.stack = swine_subcutaneous_stack();
  s.stack.add_layer(media::air(), calib::kTubeWallOffsetM);
  s.depth_m = s.stack.total_thickness_m() - calib::kTubeWallOffsetM / 2.0;
  return s;
}

}  // namespace ivnet
