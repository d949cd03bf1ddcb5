// Field-by-field images of results, doubles by bit pattern: two results
// agree iff their images compare equal, and EXPECT_EQ on two images names
// the element and the field that moved.
#pragma once

#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "ivnet/impair/waterfall.hpp"
#include "ivnet/svc/loadgen.hpp"

namespace ivnet {

inline std::uint64_t bits_of(double x) {
  return std::bit_cast<std::uint64_t>(x);
}

inline auto fields(const WaterfallPoint& p) {
  return std::tuple(bits_of(p.snr_db), bits_of(p.ber), bits_of(p.per),
                    bits_of(p.session_success_rate), bits_of(p.mean_retries),
                    bits_of(p.mean_timeouts), p.trials);
}

inline auto fields(const MatrixCell& c) {
  return std::tuple(c.medium, bits_of(c.medium_loss_db), bits_of(c.snr_db),
                    c.num_antennas, c.trials, c.successes,
                    bits_of(c.success_rate), bits_of(c.mean_retries),
                    bits_of(c.mean_timeouts), c.recovered_by_retry);
}

inline auto fields(const svc::ScheduledRequest& s) {
  const svc::Request& r = s.request;
  return std::tuple(bits_of(s.t_s), s.state, static_cast<int>(r.kind),
                    r.trials, r.antennas, r.id, r.seed, bits_of(r.snr_db),
                    bits_of(r.medium_loss_db), bits_of(r.offered_t_s));
}

template <typename T>
auto fields(const std::vector<T>& items) {
  std::vector<decltype(fields(items.front()))> out;
  for (const T& item : items) out.push_back(fields(item));
  return out;
}

}  // namespace ivnet
