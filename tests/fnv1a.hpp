// FNV-1a digest for tests that pin output bytes: fields are hashed by
// their object bytes, so doubles are pinned by their bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace ivnet {

/// FNV-1a over the object bytes of a fixed sequence of scalar fields.
class Fnv1a {
 public:
  template <typename T>
  void add(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof value);
    for (unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add_size(std::size_t n) { add(static_cast<std::uint64_t>(n)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace ivnet
