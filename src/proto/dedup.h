// At-most-once request deduplication for the server-side RPC paths.
//
// The client retransmit layer means a server can legitimately see the same
// (flow, request id) twice: once for the original, once per retransmit. This
// cache is the server's half of at-most-once semantics — a request is
// admitted for execution exactly once; while it executes, duplicates are
// dropped (the eventual response answers every copy); after it completes, the
// cached response is replayed without re-running the handler.
//
// Keying is per flow (client ip + source port) plus request id, so distinct
// clients reusing id spaces never collide. The completed window is bounded:
// oldest completed entries are evicted FIFO, in completion order. In-flight
// entries are never evicted — they are dropped only via Complete(), Abort()
// or a NIC reset — so an admitted request cannot lose its dedup slot while
// the handler runs.
//
// On the Lauberhorn stack the table lives in host memory beside the OS's
// NicShadow and the NIC works on it by reference, so it survives a NIC crash
// as it stands; ApplyNicReset() then applies the reset rules in place
// (DESIGN.md §16).
#ifndef SRC_PROTO_DEDUP_H_
#define SRC_PROTO_DEDUP_H_

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "src/proto/rpc_message.h"

namespace lauberhorn {

// The flow half of the dedup key.
constexpr uint64_t DedupFlowKey(uint32_t src_ip, uint16_t src_port) {
  return (static_cast<uint64_t>(src_ip) << 16) | src_port;
}

class RpcDedupCache {
 public:
  enum class Verdict {
    kNew,        // first sighting: execute it
    kInFlight,   // already executing: drop this copy
    kCompleted,  // already executed: replay the cached response
  };

  // A verdict with the response to replay; `cached` is set iff kCompleted.
  struct Screened {
    Verdict verdict = Verdict::kNew;
    const RpcMessage* cached = nullptr;
  };

  struct Stats {
    uint64_t admitted = 0;
    uint64_t duplicates_in_flight = 0;
    uint64_t duplicates_replayed = 0;
    uint64_t evictions = 0;
  };

  // What one NIC reset did to the table.
  struct ResetCounts {
    uint64_t completed = 0;  // kept (including pinned entries terminated now)
    uint64_t pinned = 0;     // delivered entries pinned in flight
    uint64_t dropped = 0;    // undelivered entries forgotten
  };

  explicit RpcDedupCache(size_t completed_window = 1024)
      : completed_window_(completed_window) {}

  // Classifies an incoming request and, for kNew, records it as in flight.
  // The dedup screen every server stack runs before executing a request.
  Screened Screen(uint64_t flow, uint64_t request_id);
  Verdict Admit(uint64_t flow, uint64_t request_id) {
    return Screen(flow, request_id).verdict;
  }

  // Marks an in-flight request as handed to a handler: a NIC reset must
  // never forget it (that would let a retransmit execute it again).
  void MarkDelivered(uint64_t flow, uint64_t request_id);

  // Marks an in-flight request completed and caches its response for replay.
  // Idempotent: completing an already-completed entry keeps the first
  // response (a replay must not re-cache).
  void Complete(uint64_t flow, uint64_t request_id, const RpcMessage& response);

  // Forgets an in-flight request without caching anything — used when the
  // server sheds the request instead of executing it (e.g. queue overload),
  // so a retransmit gets a fresh chance to run.
  void Abort(uint64_t flow, uint64_t request_id);

  // The NIC reset rules (DESIGN.md §16), applied in place:
  //  * completed entries are kept, with their completion order;
  //  * undelivered in-flight entries are dropped — the request died inside
  //    the device, so a retransmit executes fresh (its first execution);
  //  * a delivered entry's response died with the NIC: it stays pinned in
  //    flight (retransmits are dropped) until the next reset, which turns it
  //    into a completed kInternal terminal so it is not pinned forever.
  ResetCounts ApplyNicReset();

  const Stats& stats() const { return stats_; }
  size_t size() const { return entries_.size(); }

 private:
  struct Key {
    uint64_t flow = 0;
    uint64_t request_id = 0;
    bool operator==(const Key&) const = default;
    auto operator<=>(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      // splitmix-style finalizer over the xor of the halves.
      uint64_t x = key.flow ^ (key.request_id * 0x9e3779b97f4a7c15ULL);
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      return static_cast<size_t>(x);
    }
  };
  enum class State : uint8_t {
    kInFlight,   // admitted, not yet handed to a handler
    kDelivered,  // a handler saw it
    kPinned,     // delivered before a NIC reset: its response is lost
    kCompleted,  // response cached
  };
  struct Entry {
    State state = State::kInFlight;
    RpcMessage response;  // valid when kCompleted
  };

  // Caches `response` in `entry` and evicts past the completed window.
  void Finish(const Key& key, Entry& entry, RpcMessage response);

  size_t completed_window_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::deque<Key> completed_order_;
  Stats stats_;
};

}  // namespace lauberhorn

#endif  // SRC_PROTO_DEDUP_H_
