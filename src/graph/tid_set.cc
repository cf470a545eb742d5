#include "graph/tid_set.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "common/logging.h"
#include "common/popcount.h"

namespace partminer {

namespace {

uint64_t Bit(int tid) { return uint64_t{1} << (tid % 64); }

}  // namespace

TidSet::TidSet(const TidSet& other)
    : size_(other.size_), nwords_(other.nwords_) {
  if (nwords_ > 0) {
    words_ = new uint64_t[nwords_];
    std::copy_n(other.words_, nwords_, words_);
  } else {
    std::copy_n(other.small_, kInline, small_);
  }
}

TidSet& TidSet::operator=(const TidSet& other) {
  if (this != &other) *this = TidSet(other);
  return *this;
}

TidSet& TidSet::operator=(TidSet&& other) noexcept {
  if (this != &other) {
    Release();
    Steal(&other);
  }
  return *this;
}

void TidSet::Steal(TidSet* other) {
  size_ = other->size_;
  nwords_ = other->nwords_;
  if (nwords_ > 0) {
    words_ = other->words_;
  } else {
    std::copy_n(other->small_, kInline, small_);
  }
  other->size_ = 0;
  other->nwords_ = 0;
}

TidSet TidSet::FromVector(const std::vector<int>& tids) {
  std::vector<int> sorted = tids;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  TidSet set;
  for (const int tid : sorted) set.Append(tid, sorted.back());
  return set;
}

void TidSet::Add(int tid) {
  PM_CHECK_GE(tid, 0);
  if (nwords_ == 0) {
    int32_t* end = small_ + size_;
    int32_t* pos = std::lower_bound(small_, end, tid);
    if (pos != end && *pos == tid) return;
    if (size_ < kInline) {
      std::copy_backward(pos, end, end + 1);
      *pos = tid;
      ++size_;
      return;
    }
    ToDense(tid);
  }
  SetBit(tid);
}

void TidSet::Append(int tid, int last) {
  PM_DCHECK(tid >= 0 && tid <= last);
  if (nwords_ == 0) {
    PM_DCHECK(size_ == 0 || small_[size_ - 1] < tid);
    if (size_ < kInline) {
      small_[size_++] = tid;
      return;
    }
    ToDense(last);
  }
  SetBit(tid);
}

void TidSet::Remove(int tid) {
  if (nwords_ == 0) {
    RemoveIf([tid](int member) { return member == tid; });
    return;
  }
  const int w = tid / 64;
  if (tid < 0 || w >= nwords_ || (words_[w] & Bit(tid)) == 0) return;
  words_[w] &= ~Bit(tid);
  Normalize();
}

bool TidSet::Contains(int tid) const {
  if (nwords_ == 0) {
    return std::find(small_, small_ + size_, tid) != small_ + size_;
  }
  if (tid < 0) return false;
  const int w = tid / 64;
  return w < nwords_ && (words_[w] & Bit(tid)) != 0;
}

int TidSet::Count() const {
  int count = size_;
  for (int w = 0; w < nwords_; ++w) count += PopCount64(words_[w]);
  return count;
}

std::vector<int> TidSet::ToVector() const {
  std::vector<int> out;
  out.reserve(Count());
  ForEach([&out](int tid) { out.push_back(tid); });
  return out;
}

TidSet& TidSet::operator&=(const TidSet& other) {
  if (nwords_ == 0) {
    RemoveIf([&other](int tid) { return !other.Contains(tid); });
  } else if (other.nwords_ == 0) {
    // The result is a subset of the inline `other`: inline too.
    TidSet result;
    other.ForEach([&](int tid) {
      if (Contains(tid)) result.small_[result.size_++] = tid;
    });
    *this = std::move(result);
  } else {
    nwords_ = std::min(nwords_, other.nwords_);
    for (int w = 0; w < nwords_; ++w) words_[w] &= other.words_[w];
    Normalize();
  }
  return *this;
}

TidSet& TidSet::operator|=(const TidSet& other) {
  if (other.nwords_ > 0) {
    if (nwords_ == 0) {
      // The result has at least other's members: dense.
      TidSet result = other;
      ForEach([&result](int tid) { result.SetBit(tid); });
      *this = std::move(result);
    } else {
      if (nwords_ < other.nwords_) GrowWords(other.nwords_);
      for (int w = 0; w < other.nwords_; ++w) words_[w] |= other.words_[w];
    }
  } else if (nwords_ > 0) {
    // Largest first, so the words grow at most once.
    for (int i = other.size_ - 1; i >= 0; --i) SetBit(other.small_[i]);
  } else {
    int32_t merged[2 * kInline];
    const int n = static_cast<int>(
        std::set_union(small_, small_ + size_, other.small_,
                       other.small_ + other.size_, merged) -
        merged);
    if (n <= kInline) {
      std::copy_n(merged, n, small_);
      size_ = n;
    } else {
      size_ = 0;
      ToDense(merged[n - 1]);
      for (int i = 0; i < n; ++i) SetBit(merged[i]);
    }
  }
  return *this;
}

TidSet& TidSet::operator-=(const TidSet& other) {
  if (nwords_ == 0) {
    RemoveIf([&other](int tid) { return other.Contains(tid); });
    return *this;
  }
  if (other.nwords_ == 0) {
    other.ForEach([this](int tid) {
      if (tid / 64 < nwords_) words_[tid / 64] &= ~Bit(tid);
    });
  } else {
    const int n = std::min(nwords_, other.nwords_);
    for (int w = 0; w < n; ++w) words_[w] &= ~other.words_[w];
  }
  Normalize();
  return *this;
}

bool TidSet::Includes(const TidSet& other) const {
  if (other.nwords_ == 0) {
    for (int i = 0; i < other.size_; ++i) {
      if (!Contains(other.small_[i])) return false;
    }
    return true;
  }
  // A dense `other` has more members than an inline set can hold.
  if (other.nwords_ > nwords_) return false;
  for (int w = 0; w < other.nwords_; ++w) {
    if ((other.words_[w] & ~words_[w]) != 0) return false;
  }
  return true;
}

int TidSet::CountCommon(const TidSet& other) const {
  if (other.nwords_ == 0) {
    int common = 0;
    for (int i = 0; i < other.size_; ++i) common += Contains(other.small_[i]);
    return common;
  }
  if (nwords_ == 0) return other.CountCommon(*this);
  int common = 0;
  const int n = std::min(nwords_, other.nwords_);
  for (int w = 0; w < n; ++w) {
    common += PopCount64(words_[w] & other.words_[w]);
  }
  return common;
}

bool operator==(const TidSet& a, const TidSet& b) {
  // Canonical form: an inline set never equals a dense one, and dense sets
  // of equal contents have equally many words.
  if (a.nwords_ != b.nwords_) return false;
  if (a.nwords_ > 0) {
    return std::equal(a.words_, a.words_ + a.nwords_, b.words_);
  }
  return a.size_ == b.size_ &&
         std::equal(a.small_, a.small_ + a.size_, b.small_);
}

void TidSet::ToDense(int max_tid) {
  if (size_ > 0) max_tid = std::max(max_tid, small_[size_ - 1]);
  const int n = max_tid / 64 + 1;
  // small_ shares storage with words_: read it out before the switch.
  uint64_t* words = new uint64_t[n]();
  for (int i = 0; i < size_; ++i) words[small_[i] / 64] |= Bit(small_[i]);
  words_ = words;
  nwords_ = n;
  size_ = 0;
}

void TidSet::SetBit(int tid) {
  const int w = tid / 64;
  if (w >= nwords_) GrowWords(w + 1);
  words_[w] |= Bit(tid);
}

void TidSet::GrowWords(int n) {
  uint64_t* grown = new uint64_t[n]();
  std::copy_n(words_, nwords_, grown);
  delete[] words_;
  words_ = grown;
  nwords_ = n;
}

void TidSet::Normalize() {
  while (nwords_ > 0 && words_[nwords_ - 1] == 0) --nwords_;
  int count = 0;
  for (int w = 0; w < nwords_; ++w) {
    count += PopCount64(words_[w]);
    if (count > kInline) return;
  }
  // At most kInline members: back to the inline form. The words block is
  // still held even when every word was trimmed.
  int32_t small[kInline] = {};
  int n = 0;
  ForEach([&](int tid) { small[n++] = tid; });
  delete[] words_;
  nwords_ = 0;
  std::copy_n(small, kInline, small_);
  size_ = n;
}

std::ostream& operator<<(std::ostream& os, const TidSet& set) {
  os << '{';
  bool first = true;
  set.ForEach([&](int tid) {
    if (!first) os << ", ";
    first = false;
    os << tid;
  });
  return os << '}';
}

}  // namespace partminer
