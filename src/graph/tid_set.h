#ifndef PARTMINER_GRAPH_TID_SET_H_
#define PARTMINER_GRAPH_TID_SET_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace partminer {

/// A set of database graph indices (TIDs). This is the set representation
/// behind every TID list in the mining stack, in one of two forms:
///
///  - *inline*: a set of at most kInline TIDs is kept in the object itself as
///    ascending int32s, with no heap block. Most frontier entries hold one
///    TID, so this is the common case by count.
///  - *dense*: a larger set is a bitset in 64-bit words, one bit per graph.
///    Intersect/union/difference are word-wide operations and support is a
///    popcount, which turns the merge's per-candidate set arithmetic
///    (kept = cached \ updated, new = kept ∪ hits) into a handful of machine
///    instructions per 64 graphs.
///
/// Invariant: the form is canonical. A set with at most kInline members is
/// inline, always; a dense set has no trailing zero words. Every mutator
/// restores both, in either direction across the boundary, so equality is a
/// structural compare regardless of the operands' history, and an empty set
/// is an inline set of size 0.
class TidSet {
 public:
  /// Largest set kept inline.
  static constexpr int kInline = 4;

  TidSet() = default;
  TidSet(const TidSet& other);
  TidSet(TidSet&& other) noexcept { Steal(&other); }
  TidSet& operator=(const TidSet& other);
  TidSet& operator=(TidSet&& other) noexcept;
  ~TidSet() { Release(); }

  /// Builds from a list of TIDs (any order, duplicates fine).
  static TidSet FromVector(const std::vector<int>& tids);

  void Add(int tid);
  /// Adds `tid`, which exceeds every member, to a set whose largest member
  /// will be `last` once the caller is done: a set built this way allocates
  /// its words at most once.
  void Append(int tid, int last);
  void Remove(int tid);
  bool Contains(int tid) const;

  /// Number of TIDs present (the support).
  int Count() const;
  bool Empty() const { return size_ == 0 && nwords_ == 0; }
  void Clear() { *this = TidSet(); }

  /// Bytes of the heap block of a dense set (0 inline).
  size_t HeapBytes() const { return nwords_ * sizeof(uint64_t); }

  /// Ascending list of the TIDs present.
  std::vector<int> ToVector() const;

  /// In-place intersection / union / difference.
  TidSet& operator&=(const TidSet& other);
  TidSet& operator|=(const TidSet& other);
  TidSet& operator-=(const TidSet& other);

  /// True when `other` is a subset of this set.
  bool Includes(const TidSet& other) const;
  /// Size of the intersection with `other`, without building it.
  int CountCommon(const TidSet& other) const;

  /// Calls `fn(tid)` for every member in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (int i = 0; i < size_; ++i) fn(static_cast<int>(small_[i]));
    for (int w = 0; w < nwords_; ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + bit);
        word &= word - 1;
      }
    }
  }

  /// Removes every member for which `pred(tid)` holds.
  template <typename Pred>
  void RemoveIf(Pred&& pred) {
    if (nwords_ == 0) {
      int kept = 0;
      for (int i = 0; i < size_; ++i) {
        if (!pred(static_cast<int>(small_[i]))) small_[kept++] = small_[i];
      }
      size_ = kept;
      return;
    }
    for (int w = 0; w < nwords_; ++w) {
      for (uint64_t word = words_[w]; word != 0; word &= word - 1) {
        const int bit = __builtin_ctzll(word);
        if (pred(w * 64 + bit)) {
          words_[w] &= ~(uint64_t{1} << bit);
        }
      }
    }
    Normalize();
  }

  friend bool operator==(const TidSet& a, const TidSet& b);
  friend bool operator!=(const TidSet& a, const TidSet& b) {
    return !(a == b);
  }

  /// Renders as "{0, 3, 17}" — picked up by gtest failure messages.
  friend std::ostream& operator<<(std::ostream& os, const TidSet& set);

 private:
  /// Frees the words of a dense set; the set is left in no valid form.
  void Release() {
    if (nwords_ > 0) delete[] words_;
  }
  /// Takes over `other`'s contents (this holds no words); `other` is left
  /// empty.
  void Steal(TidSet* other);
  /// Turns an inline set into a dense one with words up to `max_tid`.
  void ToDense(int max_tid);
  /// Adds `tid` to a dense set, growing its words as needed.
  void SetBit(int tid);
  /// Grows a dense set to `n` words, the new ones zero.
  void GrowWords(int n);
  /// Restores the invariant of a dense set: drops trailing zero words and
  /// returns to the inline form at kInline members or fewer.
  void Normalize();

  /// Inline form: small_[0, size_) ascending and nwords_ == 0. Dense form:
  /// words_[0, nwords_) with nwords_ > 0 and size_ == 0.
  union {
    int32_t small_[kInline] = {};
    uint64_t* words_;
  };
  int32_t size_ = 0;
  int32_t nwords_ = 0;
};

}  // namespace partminer

#endif  // PARTMINER_GRAPH_TID_SET_H_
