// FNV-1a 64 — the repo's one non-cryptographic byte hash.
//
// Three subsystems need a cheap, stable digest of a byte stream: the
// dataset digest (Dataset::digest, the byte-identity witness session.result
// exposes), the spool integrity footer (util/fsio.hpp), and the fault
// simulator's per-point seed streams (util/faultsim.hpp). One shared
// implementation so the constants — and therefore every persisted or
// wire-visible digest — cannot drift between them.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace frote {

/// Incremental FNV-1a 64 accumulator. Byte order is explicit everywhere
/// (u64s are mixed little-endian-first), so digests are platform-stable.
class Fnv1a64 {
 public:
  void update(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= kPrime;
    }
  }

  /// Mix one u64 as its eight bytes, lowest first.
  void update_u64(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (byte * 8)) & 0xffull;
      hash_ *= kPrime;
    }
  }

  std::uint64_t digest() const { return hash_; }

 private:
  static constexpr std::uint64_t kOffset = 14695981039346656037ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t hash_ = kOffset;
};

/// One-shot convenience over a byte string.
inline std::uint64_t fnv1a64(std::string_view bytes) {
  Fnv1a64 h;
  h.update(bytes);
  return h.digest();
}

/// A digest as 16 lowercase hex digits, the form results and reports print.
inline std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace frote
