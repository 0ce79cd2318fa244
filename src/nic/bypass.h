// Kernel-bypass RPC runtime (DPDK/IX-style): dedicated cores spin-poll RX
// rings in user space and run handlers to completion. Fast when a flow's
// queue maps to a warm core; rigid (static flow->queue->core binding) and
// energy-hungry (busy-wait) otherwise — the trade-off the paper targets.
#ifndef SRC_NIC_BYPASS_H_
#define SRC_NIC_BYPASS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/net/headers.h"
#include "src/nic/dma_nic.h"
#include "src/os/kernel.h"
#include "src/overload/overload.h"
#include "src/proto/cipher.h"
#include "src/proto/dedup.h"
#include "src/proto/rpc_message.h"
#include "src/proto/service.h"
#include "src/stats/span.h"

namespace lauberhorn {

class BypassRuntime {
 public:
  struct Config {
    // Dedicated polling cores; queue q is served by cores[q].
    std::vector<int> cores;
    size_t poll_batch = 32;
    // One empty poll-loop iteration (ring peek + branch).
    Duration poll_iteration = Nanoseconds(25);
    // After this many consecutive empty polls the loop relaxes (pause/tpause
    // style) to the coarser interval below. The core still burns 100% of its
    // cycles — this only coarsens simulation granularity while idle.
    uint64_t idle_backoff_after = 32;
    Duration idle_poll_interval = Nanoseconds(500);
    // Fixed per-batch receive cost (prefetch, ring maintenance).
    Duration rx_batch_fixed = Nanoseconds(100);
    // Userspace per-packet driver + protocol cost (no skb, no syscalls).
    Duration per_packet = Nanoseconds(300);
    // Userspace TX cost per packet.
    Duration tx_per_packet = Nanoseconds(200);
    // Software transport crypto.
    bool encrypt_rpcs = false;
    uint64_t crypto_root_key = 0;
    // At-most-once execution (software analog of the Lauberhorn NIC's dedup
    // stage): duplicates of in-flight requests are dropped, completed ones
    // replay the cached response.
    bool dedup = true;
    // Overload admission in the poll loop. Rings carry no timestamps, so the
    // sojourn check runs on *estimated* delay: ring occupancy times the
    // per-request processing estimate. Sheds cost user CPU on the polling
    // core (cheaper than a full handler pass, but not free like Lauberhorn).
    AdmissionConfig admission;
  };

  // `dedup` is the server's at-most-once table (owned by the Machine).
  BypassRuntime(Simulator& sim, Kernel& kernel, DmaNicDriver& driver,
                ServiceRegistry& services, RpcDedupCache& dedup, Config config);

  // Occupies the dedicated cores and starts spinning.
  void Start();
  void Stop() { running_ = false; }

  // Per-request span tracing: the poll loop stamps pickup + handler bounds.
  void set_span_collector(SpanCollector* spans) { spans_ = spans; }

  uint64_t rpcs_completed() const { return rpcs_completed_; }
  uint64_t bad_requests() const { return bad_requests_; }
  uint64_t empty_polls() const { return empty_polls_; }
  uint64_t dup_drops_in_flight() const {
    return dedup_.stats().duplicates_in_flight;
  }
  uint64_t dup_replays() const { return dedup_.stats().duplicates_replayed; }
  // Overload sheds by reason and the user CPU charged for shedding.
  const ShedCounts& sheds() const { return sheds_; }

 private:
  void Loop(uint32_t q, Core& core);
  std::vector<uint64_t> empty_streak_;
  void ProcessBatch(uint32_t q, Core& core, std::vector<Packet> packets, size_t index);
  // Admission decision for one decoded request on queue `q`;
  // `batch_remaining` counts the packets already polled but not yet served.
  ShedReason AdmissionCheck(uint32_t q, uint32_t service_id, size_t batch_remaining);

  Simulator& sim_;
  Kernel& kernel_;
  DmaNicDriver& driver_;
  ServiceRegistry& services_;
  Config config_;
  SpanCollector* spans_ = nullptr;
  Process* process_ = nullptr;  // the bypass application owns its data plane
  RpcDedupCache& dedup_;
  bool running_ = false;
  uint64_t rpcs_completed_ = 0;
  uint64_t bad_requests_ = 0;
  uint64_t empty_polls_ = 0;
  ShedCounts sheds_;
  std::unordered_map<uint32_t, TokenBucket> service_quota_;
  std::vector<SojournGate> sojourn_;  // per queue
};

}  // namespace lauberhorn

#endif  // SRC_NIC_BYPASS_H_
