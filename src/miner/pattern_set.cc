#include "miner/pattern_set.h"

#include <algorithm>
#include <utility>

namespace partminer {

void Frontier::BeginRound(const std::vector<int>& updated) {
  ++epoch_;
  for (const int g : updated) {
    if (static_cast<size_t>(g) >= graph_epoch_.size()) {
      graph_epoch_.resize(g + 1, 0);
    }
    graph_epoch_[g] = epoch_;
    pending_.Add(g);
  }
  oldest_pending_ = epoch_;
  pending_.ForEach([this](int g) {
    oldest_pending_ = std::min(oldest_pending_, graph_epoch_[g]);
  });
}

void Frontier::Cut(const DfsCode& prefix) {
  cuts_[prefix] = epoch_;
  newest_cut_ = epoch_;
  if (std::find(cut_roots_.begin(), cut_roots_.end(), prefix[0]) ==
      cut_roots_.end()) {
    cut_roots_.push_back(prefix[0]);
  }
}

Frontier::Epoch Frontier::PrefixCutEpoch(const DfsCode& code) const {
  if (cuts_.empty() || code.size() < 2 ||
      std::find(cut_roots_.begin(), cut_roots_.end(), code[0]) ==
          cut_roots_.end()) {
    return 0;
  }
  Epoch newest = 0;
  DfsCode prefix;
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    prefix.Append(code[i]);
    newest = std::max(newest, CutEpoch(prefix));
  }
  return newest;
}

void Frontier::Strip(Epoch since, TidSet* tids) const {
  if (pending_.Empty() || since >= epoch_) return;
  if (since < oldest_pending_) {
    *tids -= pending_;
    return;
  }
  // Walk the smaller of the two sets; most entries hold a TID or two.
  if (tids->Count() <= pending_.Count()) {
    tids->RemoveIf([&](int g) {
      return static_cast<size_t>(g) < graph_epoch_.size() &&
             graph_epoch_[g] > since;
    });
  } else {
    pending_.ForEach([&](int g) {
      if (graph_epoch_[g] > since) tids->Remove(g);
    });
  }
}

void Frontier::Compact() {
  for (auto it = entries_.begin(); it != entries_.end();) {
    Entry& entry = it->second;
    const bool dead = Dead(it->first, entry.epoch);
    if (!dead) Strip(entry.epoch, &entry.tids);
    if (dead || entry.tids.Empty()) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  // The stored TIDs are current now: nothing is pending and nothing is cut.
  // Epochs keep counting, so later rounds stamp past every stored entry.
  Frontier compacted = Fork();
  compacted.entries_ = std::move(entries_);
  *this = std::move(compacted);
}

size_t Frontier::CountDead() const {
  if (cuts_.empty()) return 0;
  size_t dead = 0;
  for (const auto& [code, entry] : entries_) {
    if (Dead(code, entry.epoch)) ++dead;
  }
  return dead;
}

}  // namespace partminer
