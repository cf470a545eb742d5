#ifndef PARTMINER_COMMON_POPCOUNT_H_
#define PARTMINER_COMMON_POPCOUNT_H_

#include <cstdint>

namespace partminer {

/// Number of set bits of `x`, inline. A build that enables the POPCNT
/// instruction gets it through the builtin; elsewhere the builtin is a call
/// to libgcc's out-of-line __popcountdi2, so this counts with a branch-free
/// SWAR sum instead.
inline int PopCount64(uint64_t x) {
#ifdef __POPCNT__
  return __builtin_popcountll(x);
#else
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
#endif
}

}  // namespace partminer

#endif  // PARTMINER_COMMON_POPCOUNT_H_
