// The Lauberhorn NIC: a network interface that is part of the OS (§4-§5).
//
// The NIC is a home agent on the coherent interconnect. Each RPC endpoint is
// a pair of CONTROL cache lines plus AUX lines homed on the NIC (Fig. 4):
//
//  * A core issues a (non-caching, blocking) load on CONTROL[p]; the NIC
//    defers the fill until a request is ready, then answers with a
//    DispatchLine: code pointer, data pointer, and the arguments.
//  * The core runs the handler, stores the ResponseLine into CONTROL[p]
//    (acquiring ownership from the NIC), and loads CONTROL[1-p] for the next
//    request. The NIC interprets that load as "response ready": it pulls
//    CONTROL[p] with a coherence fetch-exclusive and transmits the response.
//  * A fill deferred close to the coherence timeout is answered with
//    TRYAGAIN (§5.1); a RETIRE answer gives the core back to the OS (§5.2).
//
// The NIC mirrors OS scheduling state (pushed over the same interconnect) to
// decide, per packet, between the hot path (fill a stalled core), queueing
// (endpoint active but busy), and the cold path (deliver to a kernel control
// channel so the OS can schedule the process). It keeps per-endpoint load
// statistics and asks the OS for more or fewer cores.
//
// Large payloads revert to DMA through the PCIe substrate (§6).
#ifndef SRC_NIC_LAUBERHORN_NIC_H_
#define SRC_NIC_LAUBERHORN_NIC_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/coherence/interconnect.h"
#include "src/net/headers.h"
#include "src/net/link.h"
#include "src/nic/cost_model.h"
#include "src/nic/dispatch_line.h"
#include "src/nic/dispatch_policy/dispatch_policy.h"
#include "src/nic/toeplitz.h"
#include "src/os/kernel.h"
#include "src/overload/overload.h"
#include "src/pcie/pcie_link.h"
#include "src/proto/cipher.h"
#include "src/proto/dedup.h"
#include "src/proto/rpc_message.h"
#include "src/proto/service.h"
#include "src/sim/simulator.h"
#include "src/stats/histogram.h"
#include "src/stats/span.h"
#include "src/stats/trace.h"

namespace lauberhorn {

class NicShadow;

// How the NIC moves payloads that exceed the AUX capacity.
enum class LargeTransferPolicy {
  kAuto,            // cache lines up to dma_fallback_bytes, then DMA (§6)
  kForceCacheline,  // always cache lines (for the crossover experiment)
  kForceDma,        // always DMA
};

// Byte offset of the response region inside an endpoint's DMA buffer (the
// first half carries request args, the second half responses).
inline constexpr uint64_t kDmaBufferRespOffset = 64 * 1024;
inline constexpr uint64_t kDmaBufferSize = 128 * 1024;

class LauberhornNic : public HomeAgent, public PacketSink {
 public:
  struct Config {
    LineAddr base = 0x1'0000'0000;  // must not overlap host memory
    size_t num_endpoints = 64;       // service endpoints
    size_t num_kernel_channels = 8;  // kernel control channels (≈ #cores)
    // Continuation endpoints (§6): lightweight one-shot endpoints a handler
    // grabs to receive the reply of a nested RPC.
    size_t num_continuations = 32;
    uint16_t continuation_port_base = 50000;
    // This NIC's own L3 identity; nested RPCs addressed to it hairpin
    // through the TX/RX pipelines instead of the wire.
    uint32_t own_ip = MakeIpv4(10, 0, 0, 2);
    Duration hairpin_latency = Nanoseconds(150);
    // Inline crypto engine (§6): open request payloads / seal responses with
    // per-service keys.
    bool crypto = false;
    uint64_t crypto_root_key = 0;
    NicPipelineCosts pipeline;
    LauberhornParams params;
    LargeTransferPolicy large_policy = LargeTransferPolicy::kAuto;
    // At-most-once execution: remember (flow, request id) per request so a
    // client retransmit never runs the handler twice — duplicates of an
    // in-flight request are dropped (the original's response answers them),
    // and duplicates of a completed request replay the cached response. The
    // table is host memory the owner passes in; its window is set there.
    bool dedup = true;
    // Overload admission control on the RX pipeline (src/overload): quota +
    // sojourn checks run before a request is queued, and sheds answer with a
    // NIC-generated kOverloaded reply at zero host-CPU cost.
    AdmissionConfig admission;
    // Receiver-driven congestion control (DESIGN.md §15): every successful
    // response to an ECN-capable sender carries a grant — the endpoint
    // queue's free headroom divided by the senders seen within
    // grant_sender_window — capping that sender's window at the share of the
    // receive queue it can actually use. Sheds carry no grant (a shed is the
    // opposite of an invitation to send). ECN-blind senders are unaffected.
    bool grants_enabled = true;
    Duration grant_sender_window = Microseconds(100);
    uint16_t grant_max = 64;
    // Post-reset grant ramp (DESIGN.md §16): after a crash recovery, grants
    // are capped at the unscheduled window (the client's cc_initial_window)
    // for grant_ramp_window, so stale credits issued by the dead NIC plus
    // fresh ones cannot jointly over-admit into the reborn queues.
    uint16_t grant_reset_cap = 8;
    Duration grant_ramp_window = Microseconds(100);
    // Secret key for the per-VF Toeplitz RSS demux (§17). Defaults to the
    // NDIS verification key so flow placement is reproducible run to run.
    ToeplitzKey rss_key = kDefaultToeplitzKey;
  };

  // -- SR-IOV-style virtualization (§17) -----------------------------------
  // VF 0 is the physical function (PF): the device-wide trust domain every
  // pre-existing caller lives in (unlimited endpoint slice, device-wide
  // admission). CreateVf carves a virtual function with its
  // own endpoint-table slice cap, its own AdmissionConfig (token-bucket
  // quota + sojourn gate enforced on the NIC before any host work), a
  // private dedup namespace (the VF id is folded into every dedup flow key,
  // so identical (src, request id) pairs on two tenants can never collide),
  // and Toeplitz RSS spreading the tenant's flows across its polling cores.
  struct VfConfig {
    std::string name;           // tenant label (metrics/debug only)
    AdmissionConfig admission;  // per-VF gate, on top of the per-service one
    size_t endpoint_limit = 0;  // max service endpoints owned; 0 = unlimited
  };
  struct VfStats {
    uint64_t rx_requests = 0;      // requests demuxed into this VF
    uint64_t responses = 0;        // responses transmitted for this VF
    ShedCounts sheds;              // sheds inside the VF slice
    uint64_t rss_steered = 0;      // demux decided by the Toeplitz hash
    uint64_t endpoints = 0;        // service endpoints currently owned
  };

  struct Stats {
    uint64_t hot_dispatches = 0;     // filled a stalled load directly
    uint64_t queued_dispatches = 0;  // endpoint active but busy: NIC-side queue
    uint64_t cold_dispatches = 0;    // delivered via a kernel channel
    uint64_t cold_queued = 0;        // waiting for a dispatcher to arrive
    uint64_t tryagains = 0;
    uint64_t retires = 0;
    uint64_t drops_bad_frame = 0;
    uint64_t drops_no_endpoint = 0;
    uint64_t drops_bad_args = 0;
    uint64_t responses_sent = 0;
    uint64_t dma_fallback_rx = 0;
    uint64_t dma_fallback_tx = 0;
    uint64_t dispatcher_wakeups = 0;
    uint64_t crypto_failures = 0;
    // Reliability layer. The two dedup counters are read from the host-owned
    // table (RpcDedupCache::Stats) when stats() builds its copy.
    uint64_t dup_drops_in_flight = 0;  // duplicate of an executing request
    uint64_t dup_replays = 0;          // duplicate answered from the cache
    uint64_t degradations = 0;         // endpoint demoted to the cold path
    uint64_t degraded_dispatches = 0;  // requests routed cold while demoted
    uint64_t wedged_polls = 0;         // deliveries withheld by a wedge fault
    uint64_t drops_service_down = 0;   // RX while the OS/service is crashed
    // Overload control: requests shed with an explicit kOverloaded reply,
    // by reason. sheds.queue also covers the bounded cold queue.
    ShedCounts sheds;
    // Congestion control (§15): grants attached to responses, and CE marks
    // observed on request frames echoed back to the sender.
    uint64_t grants_issued = 0;
    uint64_t ecn_echoes = 0;
    // Whole-NIC crash recovery (§16): packets blackholed while the device is
    // dead, CONTROL polls answered only by the bus-timeout TRYAGAIN path
    // (the watchdog's wedged-poll signal), and completed host-driven resets.
    uint64_t drops_nic_down = 0;
    uint64_t crashed_polls = 0;
    uint64_t nic_resets = 0;
  };

  // `dedup` is the at-most-once table. It lives in host memory beside the
  // OS's NicShadow, so it outlives a device crash (DESIGN.md §16).
  LauberhornNic(Simulator& sim, CoherentInterconnect& interconnect, PcieLink& pcie,
                ServiceRegistry& services, RpcDedupCache& dedup, Config config);

  const Config& config() const { return config_; }

  void set_tx_wire(LinkDirection* wire) { tx_wire_ = wire; }
  // Optional fault injection (src/fault): wedged endpoint CONTROL lines and
  // OS crash windows (RX blackhole while the service stack is down).
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }
  // Per-request span tracing: the NIC stamps admission/dispatch/delivery.
  void set_span_collector(SpanCollector* spans) { spans_ = spans; }
  // OS-side write-through shadow (src/nic/shadow): mirrors every
  // control-plane mutation so the host can rebuild the device after a crash.
  void set_shadow(NicShadow* shadow) { shadow_ = shadow; }
  // The host-owned at-most-once table this NIC works on.
  RpcDedupCache& dedup() { return dedup_; }

  // -- Crash / recovery (§16) ----------------------------------------------

  // Watchdog probe: a live device answers (true). The probe also performs
  // the lazy crash check against the fault plan, so a crash whose instant
  // has passed is detected here even on an idle machine.
  bool HeartbeatProbe() { return CheckDeviceUp(); }
  bool device_up() const { return device_up_; }
  // Host-driven reset completion: the device is reborn empty (the crash
  // already wiped all volatile state) and grants ramp from grant_reset_cap.
  // The caller (NicRecoveryManager) replays the shadow immediately after.
  void CompleteReset();
  // Shadow replay entry points. Restore* reconstruct control-plane state
  // exactly as the original Allocate* calls built it, without re-recording
  // into the shadow.
  void RestoreEndpoint(uint32_t id, uint32_t service_id, Pid pid,
                       uint64_t code_ptr, uint64_t data_ptr,
                       uint64_t dma_buffer_iova, uint32_t vf = 0);
  void RestoreVf(uint32_t vf, const VfConfig& config);
  void RestoreKernelChannel(uint32_t id);
  void RestoreContinuation(uint32_t id);
  void RestoreAdmission(const AdmissionConfig& admission);

  // -- Address layout ------------------------------------------------------

  size_t line_size() const { return interconnect_.config().line_size; }
  // Lines per endpoint: 2 control + aux.
  size_t EndpointStrideLines() const { return 2 + config_.params.aux_lines; }
  LineAddr CtrlAddr(uint32_t endpoint, int parity) const;
  LineAddr AuxAddr(uint32_t endpoint, size_t index) const;
  size_t AuxCapacityBytes() const {
    return config_.params.aux_lines * line_size();
  }

  // -- Host-facing control interface (§5.2) ----------------------------------
  // These model uncached register writes from the kernel/runtime; each call
  // takes effect after one device hop.

  // Carves a virtual function. Control-plane mutation: write-through
  // shadowed so the partition survives a device crash. Returns the VF id
  // (>= 1; VF 0 is the PF and always exists).
  uint32_t CreateVf(VfConfig config);
  size_t NumVfs() const { return vfs_.size(); }  // including the PF slot
  const VfConfig& vf_config(uint32_t vf) const { return vfs_[vf].config; }
  const VfStats& vf_stats(uint32_t vf) const { return vfs_[vf].stats; }

  // Binds a service endpoint. `dma_buffer_iova` is a host buffer (mapped in
  // the IOMMU by the runtime) for large-payload fallback; 0 disables DMA.
  // Returns the endpoint id.
  uint32_t AllocateEndpoint(uint32_t service_id, Pid pid, uint64_t code_ptr,
                            uint64_t data_ptr, uint64_t dma_buffer_iova);

  // Same, but inside a VF's endpoint-table slice; refuses (nullopt) when the
  // VF's slice cap or the global table is exhausted — a tenant cannot grow
  // past its partition, only fail loudly at its own allocation.
  std::optional<uint32_t> AllocateEndpointOnVf(uint32_t vf, uint32_t service_id,
                                               Pid pid, uint64_t code_ptr,
                                               uint64_t data_ptr,
                                               uint64_t dma_buffer_iova);

  // The process entered (left) its user-mode poll loop on this endpoint.
  void ActivateEndpoint(uint32_t endpoint, int core);
  void DeactivateEndpoint(uint32_t endpoint);

  // §5.2: the kernel pushes scheduling-state changes as they happen ("keep
  // the NIC updated with the current OS scheduling state"). This only
  // refreshes which core currently runs the endpoint's thread; loop
  // entry/exit remains explicit via Activate/Deactivate.
  void NoteThreadPlacement(uint32_t endpoint, int core, bool running);
  int EndpointCore(uint32_t endpoint) const { return endpoints_[endpoint].active_core; }

  // Allocates a kernel control channel (id in [0, num_kernel_channels)).
  uint32_t AllocateKernelChannel();

  // §5.2: ask the parked core on this endpoint to return to the OS. If a
  // load is waiting it is answered with RETIRE now; otherwise the next one is.
  void RequestRetire(uint32_t endpoint);

  // Software response path used for cold (kernel-mediated) requests: the
  // runtime marshals in software and hands the payload to the NIC TX engine.
  void SoftwareTransmit(uint64_t request_id, RpcMessage response);

  // -- Continuation endpoints for nested RPCs (§6) ----------------------------

  // Grabs a continuation endpoint from the NIC's free list ("rapidly create a
  // dedicated end-point for an RPC reply"). Returns its id, or nullopt if the
  // pool is exhausted. The caller parks on CtrlAddr(id, 0) for the reply.
  std::optional<uint32_t> AllocateContinuation();
  void FreeContinuation(uint32_t endpoint);

  // Sends a nested RPC request whose reply is routed to `continuation`.
  // Requests addressed at this machine (dst_ip == 0 or own_ip) hairpin
  // through the RX pipeline; others go out on the wire.
  void ClientTransmit(uint32_t continuation, uint32_t dst_ip, uint16_t dst_port,
                      RpcMessage request);

  // -- OS-side hooks -----------------------------------------------------------

  // Invoked (as a model of an interrupt to the OS) when a cold request is
  // queued and no kernel channel is armed.
  Callback on_need_dispatcher;
  // Observation hooks for latency tracking.
  Function<void(const Packet&)> on_wire_rx;
  Function<void(const Packet&)> on_wire_tx;

  // -- Interfaces ---------------------------------------------------------------

  void ReceivePacket(Packet packet) override;  // wire RX

  void OnHomeRead(AgentId requester, LineAddr addr, bool exclusive, FillFn fill) override;
  void OnHomeWriteBack(AgentId from, LineAddr addr, LineData data) override;
  void OnHomeUncachedWrite(AgentId from, LineAddr addr, size_t offset,
                           std::vector<uint8_t> data) override;

  // -- Introspection -------------------------------------------------------------

  // A snapshot: holding it across more simulation does not update it.
  Stats stats() const;
  // Per-endpoint shed counters (tail drops must be attributable, not silent).
  const ShedCounts& endpoint_sheds(uint32_t endpoint) const {
    return endpoints_[endpoint].sheds;
  }
  // Event trace ring (§6: tracing/statistics integration).
  TraceRing& trace() { return trace_; }
  // Instantaneous queue depth of an endpoint (NIC-side pending requests).
  size_t QueueDepth(uint32_t endpoint) const;
  // Policy-aware backlog behind this endpoint: its private queue plus the
  // service's central queue (c-FCFS / JBSQ). This is the signal the scale
  // governor consumes — under a central discipline an endpoint's private
  // queue is empty by design, yet the core is anything but idle.
  size_t DispatchBacklog(uint32_t endpoint) const;
  // Aggregate backlog of a whole service: every member endpoint's private
  // queue plus the central queue, counted once. The cluster least-loaded
  // probe exports this (plus the cold queue) as the machine's depth.
  size_t ServiceBacklog(uint32_t service_id) const;
  // Depth of the service's central queue alone (0 for per-endpoint
  // disciplines, which never populate it).
  size_t CentralQueueDepth(uint32_t service_id) const;
  // Resolved discipline for a service (its ServiceDef's).
  DispatchPolicyConfig ServicePolicy(uint32_t service_id);
  // Per-policy counters summed over the services running each discipline,
  // exported as dispatch/<policy>/*. A discipline appears once some service
  // resolved to it (its first request, or a ServicePolicy call).
  std::vector<std::pair<DispatchPolicyKind, DispatchPolicyStats>>
  PolicyStatsSnapshot() const;
  // Per-core occupancy (§18 satellite): dispatches delivered to the core
  // (hot, or through a kernel channel polled there), handler-busy
  // nanoseconds, and the instantaneous depth of the private
  // queues owned by endpoints the core is polling. Keyed by core id;
  // ordered, so metric export is deterministic.
  struct CoreOccupancy {
    uint64_t dispatches = 0;
    Duration busy_time = 0;  // delivered-to-collected, simulated picoseconds
    size_t queue_depth = 0;
  };
  std::map<int, CoreOccupancy> CoreOccupancySnapshot() const;
  // EWMA arrival rate (requests/s) per endpoint, for the scaling policy.
  double ArrivalRate(uint32_t endpoint) const;
  size_t ColdQueueDepth() const { return cold_queue_.size(); }
  bool EndpointActive(uint32_t endpoint) const;
  // NIC-maintained per-endpoint end-system latency (empty histogram until
  // the endpoint served a request).
  const Histogram& EndpointLatency(uint32_t endpoint);
  // Human-readable operational snapshot (§6's debugging integration): one
  // line per in-use endpoint with state, queue depth, arrival rate, and
  // latency summary, plus the global counters.
  std::string DebugReport();

 private:
  struct PreparedRequest {
    uint32_t endpoint = 0;
    uint32_t service_id = 0;
    uint16_t method_id = 0;
    uint64_t request_id = 0;
    std::vector<uint8_t> args;  // marshalled & NIC-validated argument bytes
    // Response addressing.
    EthernetHeader eth;
    Ipv4Header ip;
    UdpHeader udp;
    SimTime wire_arrival = 0;
  };

  struct WaitingLoad {
    FillFn fill;
    AgentId requester = kNoAgent;
    int parity = 0;
    EventId tryagain_event = kInvalidEventId;
  };

  struct OutstandingRequest {
    int parity = 0;  // line holding the delivered request / awaited response
    PreparedRequest request;
    // Core-occupancy accounting (§18): who got the dispatch and when, so
    // response collection can credit the busy interval to the right core.
    SimTime delivered_at = 0;
    int core = -1;
  };

  struct Endpoint {
    bool in_use = false;
    bool is_kernel = false;
    bool is_continuation = false;
    uint32_t id = 0;
    uint32_t service_id = 0;
    uint32_t vf = 0;  // owning virtual function (0 = PF)
    Pid pid = kNoPid;
    uint64_t code_ptr = 0;
    uint64_t data_ptr = 0;
    uint64_t dma_buffer_iova = 0;
    bool active = false;           // a core is in (or entering) the user loop
    int active_core = -1;
    bool cold_dispatch_inflight = false;
    bool retire_requested = false;
    std::optional<WaitingLoad> waiting;
    std::optional<OutstandingRequest> outstanding;
    std::deque<PreparedRequest> pending;
    // Graceful degradation (§5.1 fallout): consecutive TRYAGAINs fired while
    // work was pending mean the hot path is not making progress (a wedged
    // CONTROL line); past the threshold the endpoint is demoted to the cold
    // kernel channel for a backoff window instead of stalling the core.
    uint32_t tryagain_streak = 0;
    SimTime degraded_until = 0;
    // Load statistics (§5.2): EWMA of arrival rate.
    Ewma arrival_rate{0.2};
    SimTime last_arrival = 0;
    uint64_t arrivals = 0;
    // Per-endpoint end-system latency (§6 statistics): wire arrival to
    // response transmission, kept by the NIC itself. Lazily allocated.
    std::unique_ptr<Histogram> latency;
    // Overload control: CoDel-style gate over this endpoint's pending queue,
    // and shed attribution.
    SojournGate sojourn_gate;
    ShedCounts sheds;
  };

  // Per-VF runtime state. The config is control-plane (shadowed, replayed);
  // the quota bucket and stats are volatile and die with the firmware.
  struct VfState {
    VfConfig config;
    std::optional<TokenBucket> quota;  // built from config.admission
    VfStats stats;
  };

  // Per-service dispatch-discipline state (§18). The config is resolved once,
  // on the service's first use, from the OS's ServiceDef. CrashNow
  // keeps it (replay restores those inputs unchanged) and wipes only the
  // central queue and its gate. Counters persist across resets like stats_.
  struct DispatchGroup {
    DispatchPolicyConfig config;
    std::deque<PreparedRequest> central;  // c-FCFS / JBSQ shared queue
    SojournGate sojourn;                  // CoDel gate over `central`
    DispatchPolicyStats stats;
  };

  // Address decode.
  struct LineRole {
    Endpoint* endpoint = nullptr;
    bool is_ctrl = false;
    int parity = 0;      // for ctrl lines
    size_t aux_index = 0;  // for aux lines
  };
  LineRole Decode(LineAddr addr);
  LineData& StoredLine(LineAddr addr);

  void HandleCtrlPoll(Endpoint& ep, int parity, AgentId requester, FillFn fill);
  void DeliverToWaiting(Endpoint& ep, PreparedRequest request);
  void DeliverToKernelChannel(Endpoint& channel, PreparedRequest request);
  void FillWaiting(Endpoint& ep, LineKind kind);  // TRYAGAIN / RETIRE
  void ArmTryagain(Endpoint& ep);
  void CollectResponse(Endpoint& ep, OutstandingRequest outstanding);
  void TransmitResponse(const PreparedRequest& meta, RpcMessage response);
  // Demotes a non-progressing endpoint to the cold path for a backoff window
  // and drains its NIC-side backlog through the kernel channels.
  void DegradeEndpoint(Endpoint& ep);
  // Places a prepared request (Place) and runs that placement's one tail:
  // hot = VF quota, count, stamp, deliver; private / central = depth limit,
  // Admitted, count, stamp, enqueue; cold = Admitted over the cold queue,
  // retarget, then RouteCold.
  void DispatchPrepared(PreparedRequest request);
  void RouteCold(PreparedRequest request);
  // Sheds `request` with a NIC-generated kOverloaded reply: bumps the global
  // and per-endpoint counters and emits exactly one kDrop trace entry
  // (a = endpoint, b = reason) before handing off to TransmitResponse (which
  // aborts the dedup entry so a retransmit may run later).
  void Shed(Endpoint& ep, const PreparedRequest& request, ShedReason reason);
  // True when any admission gate applies to this endpoint: the device-wide
  // config, or the owning VF's own AdmissionConfig.
  bool AdmissionActive(const Endpoint& ep) const;
  // Tightest queue-depth bound over `base`: device-wide admission limit,
  // then the owning VF's limit.
  size_t EffectiveDepthLimit(const Endpoint& ep, size_t base) const;
  // The one admission step for a request about to join `queue`: per-VF
  // tenant quota first (the outer trust boundary), then the per-service
  // quota, then `gate` over `queue`'s head with `sojourn` targets. Sheds
  // the request against `ep` and returns false when a gate says no.
  bool Admitted(Endpoint& ep, const PreparedRequest& request,
                const std::deque<PreparedRequest>& queue, SojournGate& gate,
                const SojournConfig& sojourn);
  // The VF tenant bucket alone. Unlike the overload gates, this is a rate
  // contract: it also meters the hot path, where a parked core would
  // otherwise let a surging tenant dispatch for free. kNone = admit.
  ShedReason VfQuotaCheck(Endpoint& ep);
  // Dedup namespace key: the owning VF id folded into the high bits of the
  // 48-bit (src ip, src port) flow key, so tenants can never collide.
  uint64_t VfFlowKey(uint32_t endpoint, uint32_t src_ip,
                     uint16_t src_port) const;
  // Demux: the one candidate, or the Toeplitz hash of the 4-tuple. Under
  // d-FCFS the hash is the placement (one flow, one core, no migration);
  // central disciplines hash only to attribute the arrival (EWMA,
  // admission) — the real placement happens at dispatch time.
  uint32_t PickEndpoint(const std::vector<uint32_t>& candidates,
                        const Ipv4Header& ip, const UdpHeader& udp);
  // -- Dispatch disciplines (§18) ------------------------------------------
  // Where one request goes. Place is the only reader of the discipline on
  // the dispatch path; DispatchPrepared runs one tail per kind.
  struct Placement {
    enum class Kind {
      kHot,      // fill target's parked load now
      kPrivate,  // join target's private queue (per-endpoint, JBSQ runway)
      kCentral,  // join the service's central queue, charged to target
      kCold,     // the kernel path through the cold queue
    };
    Kind kind = Kind::kCold;
    Endpoint* target = nullptr;  // takes the request, or is charged for it
    size_t depth_limit = 0;      // kPrivate / kCentral: the queue's bound
  };
  // d-FCFS places on the demuxed endpoint by its state. c-FCFS / JBSQ try,
  // in order: a parked member (hot), a JBSQ member with spare credit (its
  // runway), cold on a coreless member once the central queue holds a full
  // runway for every member with a core (the spill that recruits a core,
  // §5.2), the central queue while any member is usable, else cold.
  // Counts degraded_dispatches; otherwise free of side effects.
  Placement Place(Endpoint& ep, const DispatchGroup& group);
  // Lazily resolves the group for ep's service from its ServiceDef.
  DispatchGroup& EnsureGroup(const Endpoint& ep);
  // A discipline that routes through the central queue.
  static bool IsCentral(const DispatchPolicyConfig& config) {
    return config.kind == DispatchPolicyKind::kCFcfs ||
           config.kind == DispatchPolicyKind::kJbsq;
  }
  // ep's group when its service runs c-FCFS / JBSQ; null for per-endpoint
  // disciplines, kernel channels and continuations.
  const DispatchGroup* CentralGroup(const Endpoint& ep) const;
  DispatchGroup* CentralGroup(const Endpoint& ep) {
    return const_cast<DispatchGroup*>(std::as_const(*this).CentralGroup(ep));
  }
  // All service endpoints of a service (the demux candidates).
  const std::vector<uint32_t>& Members(uint32_t service_id) const;
  // True when some member can make forward progress on new work.
  bool AnyUsable(const std::vector<uint32_t>& members) const;
  // Requests resident at an endpoint's core: in-flight + private queue.
  static size_t Resident(const Endpoint& ep) {
    return (ep.outstanding.has_value() ? 1 : 0) + ep.pending.size();
  }
  // A member holds a core while it is in (or entering) its loop, or while a
  // kernel dispatcher serves its request.
  static bool HoldsCore(const Endpoint& ep) {
    return ep.active || ep.cold_dispatch_inflight;
  }
  // Central-queue depth past which a coreless member takes overflow through
  // the kernel path (§5.2): a full runway — k under JBSQ, the one in-flight
  // request under c-FCFS — for every member that holds a core.
  size_t SpillThreshold(const DispatchGroup& group, uint32_t service_id) const;
  // Points the request at `target`, counting a retarget when it moves.
  static void Retarget(PreparedRequest& request, const Endpoint& target,
                       DispatchPolicyStats& counters);
  // Pops the central head, retargets it to `target` (if any) and bumps
  // `counter`, one of group.stats's fields.
  static PreparedRequest TakeCentralHead(DispatchGroup& group,
                                         const Endpoint* target,
                                         uint64_t& counter);
  // JBSQ credit refill: move central-queue heads into ep's private queue
  // until the endpoint holds k resident requests.
  void ReplenishJbsq(Endpoint& ep);
  // ep lost its core (retire, loop exit, degradation): its runway (unspent
  // JBSQ credits) returns to the front of the central queue, the rest of its
  // private queue takes the kernel path at once, and a central queue no
  // member can serve any more drains there too.
  void HandBack(Endpoint& ep);
  // A cold dispatch for ep completed while ep has no loop: the next queued
  // request (its own, or central overflow past the spill threshold) takes
  // the kernel path, keeping the recruit alive until the loop enters.
  void ContinueCold(Endpoint& ep);
  // Writes args into line_store aux lines / DMA buffer; returns the
  // DispatchLine describing the delivery.
  DispatchLine BuildDispatch(const Endpoint& ep, const PreparedRequest& request,
                             bool kernel_channel);
  // Receiver-driven credit (§15): free queue headroom of this endpoint
  // divided across the ECN-capable senders active within
  // grant_sender_window. Prunes stale senders as a side effect.
  uint16_t ComputeGrant(const Endpoint& ep);
  // Lazy crash detection (§16): consults the fault plan and, on the first
  // sighting of a new crash instant, wipes the device. Returns device_up_.
  bool CheckDeviceUp();
  // The firmware died: answer every parked load with TRYAGAIN (the
  // bus-timeout model keeps cores from stranding), then wipe all volatile
  // state — endpoint table, line store, queues, admission buckets, grant
  // state — exactly what the shadow exists to rebuild. The dedup table is
  // host memory and survives; replay applies its reset rules.
  void CrashNow();

  Simulator& sim_;
  CoherentInterconnect& interconnect_;
  PcieLink& pcie_;
  ServiceRegistry& services_;
  Config config_;
  AgentId home_id_ = kNoAgent;
  LinkDirection* tx_wire_ = nullptr;
  FaultInjector* faults_ = nullptr;
  SpanCollector* spans_ = nullptr;
  NicShadow* shadow_ = nullptr;
  RpcDedupCache& dedup_;
  // §16: false between a crash and the host-driven CompleteReset().
  bool device_up_ = true;
  // Grants are clamped to grant_reset_cap until this instant (post-reset
  // ramp); 0 = no ramp active.
  SimTime grant_ramp_until_ = 0;

  std::vector<Endpoint> endpoints_;  // [0, num_kernel_channels) are kernel
  // A service may have several endpoints (one per core it can occupy); the
  // demux stage picks among them per packet.
  std::unordered_map<uint16_t, std::vector<uint32_t>> port_to_endpoints_;
  std::unordered_map<LineAddr, LineData> line_store_;
  std::deque<PreparedRequest> cold_queue_;
  // Cold requests handed to a dispatcher, awaiting SoftwareTransmit (the
  // parity field is unused; core and delivered_at feed core occupancy).
  std::unordered_map<uint64_t, OutstandingRequest> cold_inflight_;
  uint32_t next_service_endpoint_ = 0;
  uint32_t next_kernel_channel_ = 0;
  std::vector<uint32_t> free_continuations_;
  // Overload control: per-service quota buckets (lazily created from
  // config_.admission) and a sojourn gate over the shared cold queue.
  std::unordered_map<uint32_t, TokenBucket> service_quota_;
  SojournGate cold_sojourn_;
  // VF partitions; slot 0 is the PF. Configs are control-plane state
  // (rebuilt by shadow replay); buckets/stats are volatile.
  std::vector<VfState> vfs_;
  // ECN-capable senders (src ip -> last request arrival), the denominator of
  // the per-sender grant.
  std::unordered_map<uint32_t, SimTime> cc_senders_;
  // Dispatch-discipline groups, keyed by service id (§18). Queue contents
  // are volatile (wiped by CrashNow); counters persist like stats_.
  std::unordered_map<uint32_t, DispatchGroup> groups_;
  // Per-core occupancy counters (§18 satellite). Keyed by core id; kept
  // across NIC resets like the other statistics.
  std::map<int, CoreOccupancy> core_stats_;
  Stats stats_;
  TraceRing trace_;
};

}  // namespace lauberhorn

#endif  // SRC_NIC_LAUBERHORN_NIC_H_
