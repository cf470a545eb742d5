#ifndef PARTMINER_COMMON_SETWORD_H_
#define PARTMINER_COMMON_SETWORD_H_

#include <cstdint>

#include "common/logging.h"
#include "common/popcount.h"

namespace partminer {

/// Bitmask over unit indices. The paper's IncPartMiner takes "a setword used
/// to indicate the units needed to be remined"; this is that setword.
/// Supports up to 64 units, far above the paper's k <= 6.
class SetWord {
 public:
  static constexpr int kMaxUnits = 64;

  SetWord() = default;

  /// A setword with bits [0, k) all set.
  static SetWord All(int k) {
    PM_CHECK_LE(k, kMaxUnits);
    SetWord w;
    w.bits_ = (k >= 64) ? ~0ULL : ((1ULL << k) - 1);
    return w;
  }

  void Set(int i) {
    PM_CHECK_LT(i, kMaxUnits);
    bits_ |= 1ULL << i;
  }

  void Clear(int i) {
    PM_CHECK_LT(i, kMaxUnits);
    bits_ &= ~(1ULL << i);
  }

  bool Test(int i) const {
    PM_CHECK_LT(i, kMaxUnits);
    return (bits_ >> i) & 1ULL;
  }

  bool Empty() const { return bits_ == 0; }

  int Count() const { return PopCount64(bits_); }

  uint64_t bits() const { return bits_; }

  SetWord& operator|=(const SetWord& other) {
    bits_ |= other.bits_;
    return *this;
  }

  friend bool operator==(const SetWord& a, const SetWord& b) {
    return a.bits_ == b.bits_;
  }

 private:
  uint64_t bits_ = 0;
};

}  // namespace partminer

#endif  // PARTMINER_COMMON_SETWORD_H_
