#include "src/proto/dedup.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace lauberhorn {

RpcDedupCache::Screened RpcDedupCache::Screen(uint64_t flow, uint64_t request_id) {
  auto [it, inserted] = entries_.try_emplace(Key{flow, request_id});
  if (inserted) {
    ++stats_.admitted;
    return {Verdict::kNew, nullptr};
  }
  if (it->second.state == State::kCompleted) {
    ++stats_.duplicates_replayed;
    return {Verdict::kCompleted, &it->second.response};
  }
  ++stats_.duplicates_in_flight;
  return {Verdict::kInFlight, nullptr};
}

void RpcDedupCache::MarkDelivered(uint64_t flow, uint64_t request_id) {
  auto it = entries_.find(Key{flow, request_id});
  if (it != entries_.end() && it->second.state == State::kInFlight) {
    it->second.state = State::kDelivered;
  }
}

void RpcDedupCache::Complete(uint64_t flow, uint64_t request_id,
                             const RpcMessage& response) {
  const Key key{flow, request_id};
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.state == State::kCompleted) {
    return;
  }
  Finish(key, it->second, response);
}

void RpcDedupCache::Finish(const Key& key, Entry& entry, RpcMessage response) {
  entry.state = State::kCompleted;
  entry.response = std::move(response);
  completed_order_.push_back(key);
  while (completed_order_.size() > completed_window_) {
    auto victim = entries_.find(completed_order_.front());
    completed_order_.pop_front();
    if (victim != entries_.end() && victim->second.state == State::kCompleted) {
      entries_.erase(victim);
      ++stats_.evictions;
    }
  }
}

void RpcDedupCache::Abort(uint64_t flow, uint64_t request_id) {
  auto it = entries_.find(Key{flow, request_id});
  if (it != entries_.end() && it->second.state != State::kCompleted) {
    entries_.erase(it);
  }
}

RpcDedupCache::ResetCounts RpcDedupCache::ApplyNicReset() {
  ResetCounts counts;
  std::vector<Key> terminated;
  for (auto it = entries_.begin(); it != entries_.end();) {
    switch (it->second.state) {
      case State::kCompleted:
        ++counts.completed;
        break;
      case State::kInFlight:
        ++counts.dropped;
        it = entries_.erase(it);
        continue;
      case State::kDelivered:
        ++counts.pinned;
        it->second.state = State::kPinned;
        break;
      case State::kPinned:
        ++counts.completed;
        terminated.push_back(it->first);
        break;
    }
    ++it;
  }
  // Key order, so the completion order does not depend on hash iteration.
  std::sort(terminated.begin(), terminated.end());
  for (const Key& key : terminated) {
    RpcMessage terminal;
    terminal.kind = MessageKind::kResponse;
    terminal.status = RpcStatus::kInternal;
    terminal.request_id = key.request_id;
    Finish(key, entries_.at(key), std::move(terminal));
  }
  return counts;
}

}  // namespace lauberhorn
