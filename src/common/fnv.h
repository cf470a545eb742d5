#ifndef PARTMINER_COMMON_FNV_H_
#define PARTMINER_COMMON_FNV_H_

#include <cstddef>
#include <cstdint>

namespace partminer {

/// 64-bit FNV-1a (Fowler-Noll-Vo) parameters.
constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/// One FNV-1a round: xor `value` in, then multiply by the prime. Fed one
/// byte per round this is FNV-1a; the in-memory hash tables feed one whole
/// field per round, which keeps the shape with fewer rounds.
constexpr uint64_t FnvStep(uint64_t hash, uint64_t value) {
  return (hash ^ value) * kFnvPrime;
}

/// FNV-1a over `n` bytes at `data`, starting from `seed`: the offset basis
/// for a fresh hash, or an earlier result to continue one.
inline uint64_t Fnv1a(const void* data, size_t n,
                      uint64_t seed = kFnvOffsetBasis) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) seed = FnvStep(seed, bytes[i]);
  return seed;
}

}  // namespace partminer

#endif  // PARTMINER_COMMON_FNV_H_
