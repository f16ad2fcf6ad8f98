// 64-bit hashing used by collections, name caches and the dentry cache.
//
// We use FNV-1a for byte strings (simple, dependency-free, adequate spread for
// hash tables whose growth policy rehashes) and a Stafford mix13 finalizer for
// integer keys such as lock ids and OIDs.
#ifndef AERIE_SRC_COMMON_HASH_H_
#define AERIE_SRC_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

namespace aerie {

// FNV-1a over an arbitrary byte string.
constexpr uint64_t HashBytes(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline uint64_t HashString(std::string_view s) {
  return HashBytes(s.data(), s.size());
}

// Stafford variant 13 of the murmur3 finalizer: a strong bijective mixer for
// 64-bit integer keys.
constexpr uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Combines two hashes (boost::hash_combine style, 64-bit constants).
constexpr uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return seed ^ (Mix64(v) + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4));
}

// Hash for string-keyed unordered maps that accepts std::string_view
// probes, so a lookup needs no std::string (pair it with std::equal_to<>).
struct StringViewHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace aerie

#endif  // AERIE_SRC_COMMON_HASH_H_
