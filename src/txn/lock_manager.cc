#include "src/txn/lock_manager.h"

#include <algorithm>

namespace treebench {

bool LockManager::Reaches(uint64_t from, uint64_t waiter) const {
  if (from == waiter) return true;
  auto it = waits_for_.find(from);
  if (it == waits_for_.end()) return false;
  for (uint64_t next : it->second) {
    if (Reaches(next, waiter)) return true;
  }
  return false;
}

LockManager::AcquireResult LockManager::Acquire(uint64_t txn, uint64_t key,
                                                bool exclusive,
                                                double now_ns) {
  AcquireResult res;
  if (last_held_ == nullptr || last_txn_ != txn) {
    last_txn_ = txn;
    last_held_ = &held_[txn];
  }
  std::unordered_map<uint64_t, bool>& mine = *last_held_;
  auto held_it = mine.find(key);
  bool upgrade = false;
  if (held_it != mine.end()) {
    if (held_it->second || !exclusive) return res;  // already strong enough
    upgrade = true;  // S held, X requested
  }

  auto page_it = pages_.find(key);
  if (page_it != pages_.end()) {
    PageState& st = page_it->second;
    // Conflicts with still-open transactions (other than ourselves).
    std::vector<uint64_t> blockers;
    for (const auto& [holder, holder_x] : st.holders) {
      if (holder == txn) continue;
      if (exclusive || holder_x) blockers.push_back(holder);
    }
    if (!blockers.empty()) {
      std::sort(blockers.begin(), blockers.end());
      for (uint64_t b : blockers) {
        if (Reaches(b, txn)) {
          // This request would close a wait-for cycle: the requester is the
          // victim, deterministically. No edge is recorded for a dead
          // request.
          res.outcome = Outcome::kDeadlock;
          return res;
        }
      }
      std::vector<uint64_t>& edges = waits_for_[txn];
      for (uint64_t b : blockers) {
        if (std::find(edges.begin(), edges.end(), b) == edges.end()) {
          edges.push_back(b);
        }
      }
      res.outcome = Outcome::kWouldBlock;
      return res;
    }
    // Free of open holders: wait out any overlapping *released* holder.
    double release = exclusive ? std::max(st.x_release_ns, st.s_release_ns)
                               : st.x_release_ns;
    if (release > now_ns) res.wait_ns = release - now_ns;
    // A page whose history is entirely in the past and has no holders left
    // carries no information — drop it so the table tracks only the
    // conflict frontier.
    if (st.holders.empty() && st.s_release_ns <= now_ns &&
        st.x_release_ns <= now_ns) {
      pages_.erase(page_it);
      page_it = pages_.end();
    }
  }

  // Granted: record the holding.
  if (page_it == pages_.end()) {
    page_it = pages_.emplace(key, PageState{}).first;
  }
  PageState& st = page_it->second;
  if (upgrade) {
    for (auto& h : st.holders) {
      if (h.first == txn) h.second = true;
    }
    mine[key] = true;
  } else {
    st.holders.emplace_back(txn, exclusive);
    mine[key] = exclusive;
  }
  waits_for_.erase(txn);  // the request that went through waits no more
  res.newly_acquired = true;
  return res;
}

void LockManager::Release(uint64_t txn, double now_ns) {
  auto mine_it = held_.find(txn);
  if (mine_it != held_.end()) {
    for (const auto& [key, exclusive] : mine_it->second) {
      auto page_it = pages_.find(key);
      if (page_it == pages_.end()) continue;
      PageState& st = page_it->second;
      st.holders.erase(
          std::remove_if(st.holders.begin(), st.holders.end(),
                         [txn](const auto& h) { return h.first == txn; }),
          st.holders.end());
      if (exclusive) {
        st.x_release_ns = std::max(st.x_release_ns, now_ns);
      } else {
        st.s_release_ns = std::max(st.s_release_ns, now_ns);
      }
    }
    if (last_txn_ == txn) last_held_ = nullptr;
    held_.erase(mine_it);
  }
  waits_for_.erase(txn);
  for (auto& [waiter, edges] : waits_for_) {
    edges.erase(std::remove(edges.begin(), edges.end(), txn), edges.end());
  }
}

size_t LockManager::HeldCount(uint64_t txn) const {
  auto it = held_.find(txn);
  return it == held_.end() ? 0 : it->second.size();
}

}  // namespace treebench
