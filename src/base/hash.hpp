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

#include <cstdint>
#include <string_view>

namespace relsched::base {

/// The FNV-1a 64-bit offset basis.
inline constexpr std::uint64_t kFnv1a64Seed = 0xcbf29ce484222325ULL;

/// Chainable: pass the previous digest as `seed` to extend the hash
/// over another chunk. One signature on purpose: a (pointer, size)
/// overload next to it would win overload resolution for a string
/// literal plus a seed and read the seed as the byte count.
[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view bytes,
                                           std::uint64_t seed = kFnv1a64Seed) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kPrime;
  }
  return hash;
}

}  // namespace relsched::base
