// FNV-1a 64-bit hashing.
//
// One checksum for every framed byte stream in the tree: the persist
// snapshots/WAL and the binary graph format both frame their payloads
// with it. It lives in base (not persist) so cg can checksum without
// depending on the persistence layer, which sits above it. FNV-1a is
// not cryptographic; it exists to catch truncation, torn writes, and
// bit rot, and the chainable seed form lets streamed writers fold in
// one fixed-size chunk at a time without materializing the payload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace relsched::base {

/// The FNV-1a 64-bit offset basis.
inline constexpr std::uint64_t kFnv1a64Seed = 0xcbf29ce484222325ULL;

/// Chainable: pass the previous digest as `seed` to extend the hash
/// over another chunk.
[[nodiscard]] inline std::uint64_t fnv1a64(const void* data, std::size_t size,
                                           std::uint64_t seed = kFnv1a64Seed) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kPrime;
  }
  return hash;
}

[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view text,
                                           std::uint64_t seed = kFnv1a64Seed) {
  return fnv1a64(text.data(), text.size(), seed);
}

}  // namespace relsched::base
