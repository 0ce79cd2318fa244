// NIC dispatch disciplines (DESIGN.md §18).
//
// The nanoPU result (PAPERS.md): once service times are dispersed, the
// *discipline* used to hand requests to cores — not just where dispatch
// runs — dominates RPC tail latency. This header defines the policy a
// service selects (JBSQ(2) unless it names another) and the counters each
// policy maintains:
//
//  * d-FCFS  — decentralized FCFS. The RSS hash pins each flow to one
//    endpoint/core; every endpoint owns a private queue and requests never
//    migrate. Zero coordination, but one long request head-of-line blocks
//    everything hashed behind it.
//  * c-FCFS  — centralized FCFS. The NIC keeps a single per-service queue;
//    a core receives work only when it parks on its CONTROL line (i.e. it
//    is provably idle). Perfect work conservation at the cost of a shared
//    queue structure on the NIC.
//  * JBSQ(k) — bounded join-shortest-queue. A central queue feeds at most
//    k resident requests per core (outstanding + local queue); credits are
//    replenished when a response is collected. Approximates c-FCFS tails
//    while giving each core a short private runway that hides the
//    NIC-to-core dispatch latency. The default.
//
// The central disciplines also recruit cores (§5.2): once the central queue
// holds a full runway for every member with a core, a request for a member
// without one takes the kernel path, which lets the runtime promote it.
//
// This header is deliberately free of NIC dependencies so that
// src/proto/service.h (which the NIC itself depends on) can embed a
// DispatchPolicyConfig in every ServiceDef.
#ifndef SRC_NIC_DISPATCH_POLICY_DISPATCH_POLICY_H_
#define SRC_NIC_DISPATCH_POLICY_DISPATCH_POLICY_H_

#include <cstdint>
#include <optional>
#include <string>

namespace lauberhorn {

enum class DispatchPolicyKind : uint8_t {
  kDFcfs = 1,  // per-core queues, pure RSS affinity, no migration
  kCFcfs = 2,  // single NIC-side central queue, pull on CONTROL stall
  kJbsq = 3,   // central queue + at most k resident per core
};

// Per-service policy selection, embedded in ServiceDef. Control-plane
// state: it lives in the OS's service registry, so it survives a NIC crash
// and shadow replay re-derives the same queues.
struct DispatchPolicyConfig {
  DispatchPolicyKind kind = DispatchPolicyKind::kJbsq;
  // JBSQ bound: max requests resident at one core (the in-flight request
  // plus its local runway). k=1 degenerates to c-FCFS with an extra hop;
  // k→∞ degenerates to unbounded push. 2 is the nanoPU sweet spot.
  uint32_t jbsq_k = 2;
};

// Volatile per-policy counters (exported as dispatch/<policy>/* metrics).
// Queue contents die with the firmware on a NIC crash; these counters are
// kept across the reset, like the device's other statistics.
struct DispatchPolicyStats {
  uint64_t hot_dispatches = 0;      // filled a stalled core directly
  uint64_t local_queued = 0;        // queued on an endpoint's private queue
  uint64_t central_queued = 0;      // queued on the service's central queue
  uint64_t central_pulled = 0;      // central head handed to a parking core
  uint64_t jbsq_replenished = 0;    // central→local credit refills (JBSQ)
  uint64_t retargets = 0;           // request moved to a different endpoint
  uint64_t returned_on_retire = 0;  // local credits pushed back to central
  uint64_t drained_cold = 0;        // central backlog drained via kernel path

  DispatchPolicyStats& operator+=(const DispatchPolicyStats& other) {
    hot_dispatches += other.hot_dispatches;
    local_queued += other.local_queued;
    central_queued += other.central_queued;
    central_pulled += other.central_pulled;
    jbsq_replenished += other.jbsq_replenished;
    retargets += other.retargets;
    returned_on_retire += other.returned_on_retire;
    drained_cold += other.drained_cold;
    return *this;
  }
};

const char* ToString(DispatchPolicyKind kind);
std::optional<DispatchPolicyKind> ParseDispatchPolicyKind(
    const std::string& name);

}  // namespace lauberhorn

#endif  // SRC_NIC_DISPATCH_POLICY_DISPATCH_POLICY_H_
