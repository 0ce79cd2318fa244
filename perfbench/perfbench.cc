// perfbench — one benchmark for the three modelled RPC stacks (linux, bypass,
// lauberhorn) and for the simulator's own speed.
//
//   perfbench --workload <echo_light|bimodal_busy|faulty_retx> --seed N
//             --seconds S --trace <0|1>
//
// Each repetition runs the workload's traffic against every stack in turn on
// one thread: a one-shard Testbed with one server Machine whose client reaches
// the NIC across the testbed fabric. Arrivals (Poisson, open loop) and request
// arguments (a u64 sequence number in args[0], plus a payload for the echo
// workloads) are generated here from --seed; the program only sees RpcClient
// calls. Repetitions continue until --seconds of host time have passed.
//
// Modelled numbers (RTT percentiles, cycles per RPC, failures) are simulated,
// so they repeat exactly for a seed: every repetition must reproduce the
// first one bit for bit, and the traced repetitions must reproduce the
// untraced ones. Host numbers (set-up and traffic wall time) are medians over
// the repetitions, in reference seconds (see ReferenceSample). The last
// stdout line is the JSON result: end-to-end metrics with --trace 0,
// per-layer metrics (from traced repetitions) with --trace 1.
#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/derive.h"
#include "src/core/testbed.h"
#include "src/net/headers.h"
#include "src/nic/dispatch_policy/dispatch_policy.h"
#include "src/proto/dedup.h"
#include "src/proto/marshal.h"
#include "src/sim/random.h"
#include "src/workload/generator.h"

namespace perfbench {
namespace {

using lauberhorn::Duration;
using lauberhorn::Machine;
using lauberhorn::MachineConfig;
using lauberhorn::Packet;
using lauberhorn::RpcMessage;
using lauberhorn::RpcStatus;
using lauberhorn::ServiceDef;
using lauberhorn::SimTime;
using lauberhorn::StackKind;
using lauberhorn::Testbed;
using lauberhorn::WireType;
using lauberhorn::WireValue;
using Clock = std::chrono::steady_clock;

constexpr std::array<StackKind, 3> kStacks = {
    StackKind::kLinux, StackKind::kBypass, StackKind::kLauberhorn};
constexpr size_t kNumStacks = kStacks.size();
constexpr size_t kSegments = lauberhorn::kSpanSegmentCount;

// Simulated time every machine runs idle after Start (hot loops parked,
// softirq threads up) before traffic begins.
constexpr Duration kWarm = lauberhorn::Milliseconds(1);
// Every workload runs on an 8-core server machine; Lauberhorn serves on up
// to 4 hot cores and bypass spins on 4 (one per RX queue).
constexpr int kCores = 8;
constexpr int kLauberhornCores = 4;
constexpr uint32_t kBypassQueues = 4;
// Echo handler time: 2 us +/- 5%, uniform.
constexpr Duration kEchoService = lauberhorn::Microseconds(2);
constexpr Duration kEchoJitter = lauberhorn::Nanoseconds(100);
// Upper bound on the post-traffic drain; the retransmit ladder of faulty_retx
// ends within ~30 ms.
constexpr Duration kMaxDrain = lauberhorn::Milliseconds(200);
// Frames kept for the parse-cost probe.
constexpr size_t kParseSample = 4096;
// Host time each offline probe (parse, dedup) runs for.
constexpr double kProbeSeconds = 0.02;
// Work in one host-speed reference sample, and the host seconds that sample
// takes at the reference speed (a 4-core Xeon KVM guest at its median speed).
constexpr uint64_t kRefEvents = 200000;
constexpr uint64_t kRefRounds = 2000000;
constexpr double kRefNominalS = 0.05;

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

struct Workload {
  const char* name = "";
  bool bimodal = false;  // else the echo handler time
  size_t payload_bytes = 64;                  // 0: args are the u64 alone
  std::array<double, kNumStacks> rate_rps{};  // offered load per stack
  Duration traffic = 0;                       // simulated arrival window
  Duration skip = 0;                          // leading part not sampled
  bool faults = false;                        // Canonical(1.0) + retransmits
  int linux_workers = 2;
  uint32_t dma_queues = 2;  // Linux RX queues
  bool jbsq = false;
  // Independent runs (fresh testbed, derived seed) pooled per stack.
  int episodes = 1;
};

std::vector<Workload> Workloads() {
  using lauberhorn::Milliseconds;
  Workload echo;
  echo.name = "echo_light";
  echo.rate_rps = {50000.0, 50000.0, 50000.0};
  echo.traffic = Milliseconds(400);
  echo.skip = Milliseconds(2);

  Workload bimodal;
  bimodal.name = "bimodal_busy";
  bimodal.bimodal = true;
  bimodal.payload_bytes = 0;
  // About 0.8 of each stack's closed-loop capacity on this configuration
  // (linux, bypass, lauberhorn); fixed, never recalibrated per run.
  bimodal.rate_rps = {675000.0, 671000.0, 1088000.0};
  bimodal.traffic = Milliseconds(300);
  bimodal.skip = Milliseconds(1);
  bimodal.linux_workers = 4;
  bimodal.dma_queues = 4;
  bimodal.jbsq = true;

  Workload faulty = echo;
  faulty.name = "faulty_retx";
  faulty.rate_rps = {200000.0, 200000.0, 200000.0};
  // Traffic ends as the canonical plan's first OS crash (20 ms) begins, so
  // the crash meets in-flight requests and retransmits only. A crash inside
  // the window would send ~0.8% of requests through two retransmits and put
  // p99 on the edge between the one- and two-retransmit groups.
  faulty.traffic = Milliseconds(19);
  faulty.faults = true;
  // Wedged-endpoint faults hit Lauberhorn in rare clumps of ~50 requests;
  // pooling independent episodes keeps one clump from moving p99.
  faulty.episodes = 8;
  return {echo, bimodal, faulty};
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The echo payload of request `seq`: a pure function of (seed, seq), so the
// reply can be checked without storing what was sent.
std::vector<uint8_t> PayloadFor(uint64_t seed, uint64_t seq, size_t bytes) {
  std::vector<uint8_t> out(bytes);
  uint64_t word = Mix(seed ^ Mix(seq));
  for (size_t i = 0; i < bytes; ++i) {
    if (i % 8 == 0 && i > 0) {
      word = Mix(word);
    }
    out[i] = static_cast<uint8_t>(word >> (8 * (i % 8)));
  }
  return out;
}

// Poisson arrival offsets (from traffic start) of one stack's requests. Every
// stack draws the same unit-rate sequence, scaled by its own offered rate.
std::vector<Duration> Arrivals(const Workload& w, size_t stack, uint64_t seed) {
  lauberhorn::Rng rng(Mix(seed) ^ 0xa771a15ULL);
  std::vector<Duration> due;
  double t_ns = 0.0;
  const double mean_gap_ns = 1e9 / w.rate_rps[stack];
  while (true) {
    t_ns += rng.Exponential(1.0) * mean_gap_ns;
    const Duration at = lauberhorn::NanosecondsF(t_ns);
    if (at >= w.traffic) {
      return due;
    }
    due.push_back(at);
  }
}

// Cumulative simulated counters of one stack's testbed at an instant.
struct Counters {
  uint64_t events = 0;
  uint64_t fabric_packets = 0;
  uint64_t fabric_drops = 0;
  uint64_t bypass_rpcs = 0;
  uint64_t empty_polls = 0;
  uint64_t hot = 0;
  uint64_t queued = 0;
  uint64_t cold = 0;
  uint64_t tryagains = 0;
  uint64_t central_queued = 0;
  uint64_t core_busy_ps = 0;  // summed over the NIC's per-core occupancy
  uint64_t rx_drops = 0;
  uint64_t coherence_msgs = 0;
  uint64_t mmio_ops = 0;
  uint64_t dma_bytes = 0;
  uint64_t dedup_replays = 0;
  uint64_t dedup_inflight_drops = 0;
  uint64_t retransmits = 0;
  uint64_t timeouts = 0;
  uint64_t late_responses = 0;
  uint64_t faults_injected = 0;

  static constexpr uint64_t Counters::*kFields[] = {
      &Counters::events,         &Counters::fabric_packets,
      &Counters::fabric_drops,   &Counters::bypass_rpcs,
      &Counters::empty_polls,    &Counters::hot,
      &Counters::queued,         &Counters::cold,
      &Counters::tryagains,      &Counters::central_queued,
      &Counters::core_busy_ps,   &Counters::rx_drops,
      &Counters::coherence_msgs, &Counters::mmio_ops,
      &Counters::dma_bytes,      &Counters::dedup_replays,
      &Counters::dedup_inflight_drops, &Counters::retransmits,
      &Counters::timeouts,       &Counters::late_responses,
      &Counters::faults_injected};

  Counters Minus(const Counters& o) const {
    Counters d = *this;
    for (auto field : kFields) {
      d.*field -= o.*field;
    }
    return d;
  }
  Counters& operator+=(const Counters& o) {
    for (auto field : kFields) {
      this->*field += o.*field;
    }
    return *this;
  }
};

Counters Snapshot(Testbed& testbed, Machine& m) {
  Counters c;
  c.events = testbed.sim().events_executed();
  c.fabric_packets = testbed.fabric().forwarded();
  c.fabric_drops = testbed.fabric().dropped() + testbed.fabric().queue_drops();
  c.coherence_msgs = m.interconnect().stats().TotalMessages();
  c.mmio_ops = m.pcie().mmio_reads() + m.pcie().mmio_writes();
  c.dma_bytes = m.pcie().dma_read_bytes() + m.pcie().dma_write_bytes();
  c.retransmits = m.client().retransmits();
  c.timeouts = m.client().timeouts();
  c.late_responses = m.client().late_responses();
  if (const lauberhorn::FaultInjector* f = m.fault_injector()) {
    const auto& s = f->stats();
    c.faults_injected = s.net_drops + s.net_duplicates + s.net_reorders +
                        s.net_corruptions + s.coherence_fill_delays +
                        s.coherence_fill_drops + s.iommu_faults + s.dma_errors +
                        s.os_crashes + s.nic_wedges + s.nic_crashes +
                        s.cc_grant_losses + s.cc_ecn_corruptions;
  }
  if (const lauberhorn::DmaNic* nic = m.dma_nic()) {
    c.rx_drops = nic->rx_drops_no_desc() + nic->rx_drops_bad_frame() +
                 nic->rx_drops_service_down();
  }
  if (const lauberhorn::LinuxRpcStack* linux_stack = m.linux_stack()) {
    c.dedup_replays = linux_stack->dup_replays();
    c.dedup_inflight_drops = linux_stack->dup_drops_in_flight();
  }
  if (const lauberhorn::BypassRuntime* bypass = m.bypass()) {
    c.bypass_rpcs = bypass->rpcs_completed();
    c.empty_polls = bypass->empty_polls();
    c.dedup_replays = bypass->dup_replays();
    c.dedup_inflight_drops = bypass->dup_drops_in_flight();
  }
  if (const lauberhorn::LauberhornNic* nic = m.lauberhorn_nic()) {
    const auto& s = nic->stats();
    c.hot = s.hot_dispatches;
    c.queued = s.queued_dispatches;
    c.cold = s.cold_dispatches;
    c.tryagains = s.tryagains;
    c.dedup_replays = s.dup_replays;
    c.dedup_inflight_drops = s.dup_drops_in_flight;
    for (const auto& [kind, ps] : nic->PolicyStatsSnapshot()) {
      c.central_queued += ps.central_queued;
    }
    for (const auto& [core, occ] : nic->CoreOccupancySnapshot()) {
      c.core_busy_ps += static_cast<uint64_t>(occ.busy_time);
    }
  }
  return c;
}

// Re-pointed fabric port in front of the server NIC (traced runs only):
// keeps a sample of the workload's own request frames for the parse probe
// and the (flow, request id) stream for the dedup probe, then forwards the
// frame unchanged in the same event, so the model sees no difference.
class CaptureSink : public lauberhorn::PacketSink {
 public:
  explicit CaptureSink(lauberhorn::PacketSink* next) : next_(next) {}

  void ReceivePacket(Packet packet) override {
    if (frames_.size() < kParseSample) {
      frames_.push_back(packet);
    }
    if (auto parsed = lauberhorn::ParseUdpFrame(packet)) {
      if (auto msg = lauberhorn::DecodeRpcMessage(parsed->payload);
          msg && msg->kind == lauberhorn::MessageKind::kRequest) {
        ids_.emplace_back(lauberhorn::DedupFlowKey(parsed->ip.src, parsed->udp.src_port),
                          msg->request_id);
      }
    }
    next_->ReceivePacket(std::move(packet));
  }

  const std::vector<Packet>& frames() const { return frames_; }
  const std::vector<std::pair<uint64_t, uint64_t>>& ids() const { return ids_; }

 private:
  lauberhorn::PacketSink* next_;
  std::vector<Packet> frames_;
  std::vector<std::pair<uint64_t, uint64_t>> ids_;
};

// Host ns per ParseUdpFrame over the captured frames.
double ParseNs(const std::vector<Packet>& frames) {
  if (frames.empty()) {
    return 0.0;
  }
  uint64_t parses = 0;
  uint64_t valid = 0;
  const auto t0 = Clock::now();
  Clock::duration elapsed{};
  do {
    for (const Packet& p : frames) {
      valid += lauberhorn::ParseUdpFrame(p).has_value() ? 1 : 0;
    }
    parses += frames.size();
    elapsed = Clock::now() - t0;
  } while (Seconds(elapsed) < kProbeSeconds);
  if (valid > parses) {  // keeps the parse results live
    std::abort();
  }
  return Seconds(elapsed) * 1e9 / static_cast<double>(parses);
}

// Host ns per RpcDedupCache Admit (+ Complete for a new id) over the
// captured request-id stream, on a fresh cache with the default window.
double DedupNs(const std::vector<std::pair<uint64_t, uint64_t>>& ids) {
  if (ids.empty()) {
    return 0.0;
  }
  RpcMessage response;
  response.kind = lauberhorn::MessageKind::kResponse;
  response.payload.assign(16, 0);
  uint64_t ops = 0;
  uint64_t fresh = 0;
  const auto t0 = Clock::now();
  Clock::duration elapsed{};
  do {
    lauberhorn::RpcDedupCache cache;
    for (const auto& [flow, id] : ids) {
      if (cache.Admit(flow, id) == lauberhorn::RpcDedupCache::Verdict::kNew) {
        response.request_id = id;
        cache.Complete(flow, id, response);
        ++fresh;
      }
    }
    ops += ids.size();
    elapsed = Clock::now() - t0;
  } while (Seconds(elapsed) < kProbeSeconds);
  if (fresh > ops) {
    std::abort();
  }
  return Seconds(elapsed) * 1e9 / static_cast<double>(ops);
}

// One host-speed reference sample: host seconds of a fixed amount of work
// that does not depend on the simulator's code. A shared host changes speed
// by up to ~1.7x for seconds to minutes at a time, and such a change moves
// every host time of a run alike. Each stack's host times are therefore
// divided by the mean of the samples taken just before and just after it,
// and reported in reference seconds: host seconds scaled to the speed at
// which a sample takes kRefNominalS. The sample mixes a latency-bound part
// (a miniature event loop: binary heap of timed events, hash-table updates,
// short-lived allocations) with a throughput-bound part (eight independent
// LCG streams); neither alone tracks the simulator's slow-downs as closely.
double ReferenceSample() {
  struct Event {
    uint64_t at;
    uint32_t key;
    bool operator>(const Event& o) const { return at > o.at; }
  };
  std::vector<Event> heap;
  std::unordered_map<uint32_t, uint64_t> table;
  table.reserve(8192);
  uint64_t x = 0x1234567ULL;
  for (uint32_t i = 0; i < 2048; ++i) {
    x = Mix(x);
    heap.push_back({x % 100000, static_cast<uint32_t>(x >> 40)});
    std::push_heap(heap.begin(), heap.end(), std::greater<Event>());
  }
  uint64_t sum = 0;
  const auto t0 = Clock::now();
  for (uint64_t i = 0; i < kRefEvents; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<Event>());
    const Event ev = heap.back();
    heap.pop_back();
    uint64_t& slot = table[ev.key % 8192];
    slot += ev.at;
    std::vector<uint8_t> payload(64 + (ev.key & 63));
    payload[ev.key % payload.size()] = static_cast<uint8_t>(slot);
    sum += payload[ev.key % payload.size()];
    x = Mix(x + sum);
    heap.push_back({ev.at + 1 + x % 100000, static_cast<uint32_t>(x >> 40)});
    std::push_heap(heap.begin(), heap.end(), std::greater<Event>());
  }
  std::array<uint64_t, 8> lcg = {1, 2, 3, 4, 5, 6, 7, 8};
  for (uint64_t i = 0; i < kRefRounds; ++i) {
    for (uint64_t& a : lcg) {
      a = a * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint64_t v = a >> 33;
      sum += (i & 1) != 0 ? v ^ (v << 3) : v + (v >> 5);
    }
  }
  const double elapsed = Seconds(Clock::now() - t0);
  if (sum == 0) {  // keeps the work live
    std::abort();
  }
  return elapsed;
}

class Fingerprint {
 public:
  void Add(uint64_t v) { h_ = Mix(h_ ^ v); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0x6c62686265ULL;
};

// Everything one stack's run yields, summed over its episodes. The simulated
// part is what must repeat exactly; the host part is measured.
struct StackRun {
  // Host. Set-up and wall time are in host seconds until RunRep converts
  // them to reference seconds.
  double setup_s = 0.0;
  double wall_s = 0.0;
  double client_call_ns = 0.0;  // traced only
  double parse_ns = 0.0;        // traced only, first episode's frames
  double dedup_ns = 0.0;        // traced only, first episode's id stream
  // Simulated.
  Accounting acct;
  uint64_t completed = 0;      // requests that ended kOk
  std::vector<double> rtt_us;  // completed requests in the measured windows
  double busy_cycles = 0.0;    // measured windows, all cores
  uint64_t window_rpcs = 0;    // server RPCs in the measured windows
  double busy_frac = 0.0;
  uint64_t peak_pending = 0;
  uint64_t nic_cores = 0;  // cores with Lauberhorn occupancy records
  Counters delta;          // traffic phases, drains included
  Fingerprint fingerprint;
  // Traced only (simulated, from spans).
  std::array<std::vector<double>, kSegments> segment_us;
  std::vector<double> uncovered_us;
  uint64_t span_dropped = 0;

  double CyclesPerRpc() const { return PerRpc(busy_cycles, window_rpcs); }
};

MachineConfig MakeConfig(const Workload& w, StackKind stack, uint64_t seed,
                         bool traced, size_t requests) {
  MachineConfig config;
  config.stack = stack;
  config.num_cores = kCores;
  config.seed = seed;
  config.nic_queues = stack == StackKind::kBypass ? kBypassQueues : w.dma_queues;
  config.linux_stack.worker_threads_per_service = w.linux_workers;
  config.server_dedup = true;
  if (w.faults) {
    config.faults = lauberhorn::FaultPlan::Canonical(1.0, seed);
    config.client_retransmit_timeout = lauberhorn::Microseconds(300);
    config.client_max_retransmits = 8;
    config.client_backoff_multiplier = 2.0;
    config.client_max_retransmit_timeout = lauberhorn::Milliseconds(5);
    config.client_retransmit_jitter = 0.2;
  }
  if (traced) {
    config.enable_spans = true;
    // Room for every request of the run, so no span is evicted.
    config.span_capacity = requests + 1024;
  }
  return config;
}

ServiceDef MakeService(const Workload& w, uint64_t seed,
                       std::vector<RequestRecord>* records) {
  ServiceDef def;
  def.service_id = 1;
  def.name = "perfbench";
  def.udp_port = 7000;
  if (w.jbsq) {
    def.dispatch.kind = lauberhorn::DispatchPolicyKind::kJbsq;
    def.dispatch.jbsq_k = 2;
  }
  lauberhorn::MethodDef method;
  method.method_id = 0;
  method.name = "echo";
  method.request_sig.args = {WireType::kU64};
  if (w.payload_bytes > 0) {
    method.request_sig.args.push_back(WireType::kBytes);
  }
  method.response_sig = method.request_sig;
  method.handler = [records](const std::vector<WireValue>& args) {
    if (!args.empty() && args[0].scalar < records->size()) {
      ++(*records)[args[0].scalar].executions;
    }
    return args;
  };
  if (w.bimodal) {
    lauberhorn::ServiceTimeSpec spec;
    spec.dist = lauberhorn::ServiceTimeDist::kBimodal;
    spec.heavy_fraction = 0.005;
    spec.bimodal_short = lauberhorn::Microseconds(1);
    spec.bimodal_long = lauberhorn::Microseconds(100);
    spec.seed = seed;
    method.service_time = lauberhorn::MakeServiceTimeFn(spec);
  } else {
    // A pure function of (seed, seq), so every stack and every retransmit
    // sees the same handler time for a request. The jitter keeps the
    // unloaded RTT distribution continuous: with a constant handler time
    // the model has no other randomness on that path, and the median RTT
    // would be one identical value for every seed.
    const Duration lo = kEchoService - kEchoJitter;
    const uint64_t span = static_cast<uint64_t>(2 * kEchoJitter) + 1;
    method.service_time = [lo, span, seed](const std::vector<WireValue>& args) {
      const uint64_t seq = args.empty() ? 0 : args[0].scalar;
      return lo + static_cast<Duration>(Mix(seed ^ Mix(seq ^ 0x5e41ULL)) % span);
    };
  }
  def.methods[0] = std::move(method);
  return def;
}

// Runs one episode — a fresh testbed with its own seed — of a stack's
// traffic and adds what it yields to `run`. The first episode of a traced run
// also feeds the host-side parse and dedup probes.
void RunEpisode(const Workload& w, size_t stack_index, uint64_t seed, bool traced,
                bool probe, StackRun& run) {
  const StackKind stack = kStacks[stack_index];
  const std::vector<Duration> due = Arrivals(w, stack_index, seed);
  const size_t n = due.size();
  std::vector<RequestRecord> records(n);
  std::vector<Duration> rtt(n, -1);
  std::vector<uint64_t> request_ids(n, 0);
  std::unique_ptr<CaptureSink> capture;
  double call_s = 0.0;

  const auto t_setup = Clock::now();
  auto testbed = std::make_unique<Testbed>();
  Machine& m = testbed->AddMachine(MakeConfig(w, stack, seed, traced, n));
  const ServiceDef& svc = m.AddService(
      MakeService(w, seed, &records),
      stack == StackKind::kLauberhorn ? kLauberhornCores : 1);
  m.Start();
  if (stack == StackKind::kLauberhorn) {
    m.StartHotLoop(svc);
  }
  lauberhorn::Simulator& sim = testbed->sim();
  sim.RunUntil(kWarm);
  run.setup_s += Seconds(Clock::now() - t_setup);

  if (traced) {
    lauberhorn::PacketSink* nic =
        m.lauberhorn_nic() != nullptr
            ? static_cast<lauberhorn::PacketSink*>(m.lauberhorn_nic())
            : static_cast<lauberhorn::PacketSink*>(m.dma_nic());
    capture = std::make_unique<CaptureSink>(nic);
    testbed->fabric().Register(m.config().server_ip, capture.get());
  }

  const SimTime start = sim.Now();
  const lauberhorn::MethodSignature& sig = svc.FindMethod(0)->response_sig;
  const size_t want_args = sig.args.size();
  auto on_done = [&](size_t i, const RpcMessage& msg, Duration d) {
    RequestRecord& rec = records[i];
    ++rec.endings;
    if (msg.status == RpcStatus::kOk) {
      rec.outcome = Outcome::kOk;
      std::vector<WireValue> values;
      const bool echoed =
          lauberhorn::UnmarshalArgs(sig, msg.payload, values) &&
          values.size() == want_args && values[0].scalar == i &&
          (w.payload_bytes == 0 || values[1].bytes == PayloadFor(seed, i, w.payload_bytes));
      rec.payload_ok = rec.payload_ok && echoed;
      rtt[i] = d;
      ++run.completed;
    } else if (msg.status == lauberhorn::kTimedOut) {
      rec.outcome = Outcome::kTimedOut;
    } else if (msg.status == RpcStatus::kOverloaded) {
      rec.outcome = Outcome::kShed;
    } else {
      rec.outcome = Outcome::kError;
    }
  };
  // Open-loop generator: request i is issued at start + due[i] whatever the
  // state of earlier ones, then schedules request i + 1.
  lauberhorn::Function<void(size_t)> fire;
  fire = [&](size_t i) {
    std::vector<WireValue> args = {WireValue::U64(i)};
    if (w.payload_bytes > 0) {
      args.push_back(WireValue::Bytes(PayloadFor(seed, i, w.payload_bytes)));
    }
    auto done = [&on_done, i](const RpcMessage& msg, Duration d) { on_done(i, msg, d); };
    if (traced) {
      const auto t0 = Clock::now();
      request_ids[i] = m.client().Call(svc, 0, args, std::move(done));
      call_s += Seconds(Clock::now() - t0);
    } else {
      request_ids[i] = m.client().Call(svc, 0, args, std::move(done));
    }
    if (i + 1 < n) {
      sim.ScheduleAt(start + due[i + 1], [&fire, i]() { fire(i + 1); });
    }
  };

  const Counters before = Snapshot(*testbed, m);
  const auto t_traffic = Clock::now();
  if (n > 0) {
    sim.ScheduleAt(start + due[0], [&fire]() { fire(0); });
  }
  sim.RunUntil(start + w.skip);
  m.ResetMeasurement();
  const Duration busy_from = m.TotalBusyTime();
  const uint64_t rpcs_from = m.server_rpcs();
  sim.RunUntil(start + w.traffic);
  const uint64_t window_rpcs = m.server_rpcs() - rpcs_from;
  run.busy_cycles += m.CyclesPerRpc() * static_cast<double>(window_rpcs);
  run.window_rpcs += window_rpcs;
  const Duration busy = m.TotalBusyTime() - busy_from;
  while (m.client().outstanding() > 0 && sim.Now() < start + w.traffic + kMaxDrain) {
    sim.RunUntil(sim.Now() + lauberhorn::Milliseconds(1));
  }
  run.wall_s += Seconds(Clock::now() - t_traffic);
  const Counters delta = Snapshot(*testbed, m).Minus(before);
  run.delta += delta;
  run.peak_pending = std::max<uint64_t>(run.peak_pending, sim.slab_capacity());
  // Busy share of all cores over the measured windows, pooled by time.
  const double capacity = static_cast<double>(w.traffic - w.skip) * kCores;
  run.busy_frac += static_cast<double>(busy) / capacity / w.episodes;
  if (m.lauberhorn_nic() != nullptr) {
    run.nic_cores = m.lauberhorn_nic()->CoreOccupancySnapshot().size();
  }

  const Accounting acct = Account(records);
  run.acct += acct;
  Fingerprint& fp = run.fingerprint;
  run.rtt_us.reserve(run.rtt_us.size() + n);
  for (size_t i = 0; i < n; ++i) {
    fp.Add(static_cast<uint64_t>(rtt[i]));
    fp.Add(records[i].executions);
    fp.Add(static_cast<uint64_t>(records[i].outcome) | (uint64_t{records[i].endings} << 8));
    if (due[i] >= w.skip && rtt[i] >= 0) {
      run.rtt_us.push_back(lauberhorn::ToMicroseconds(rtt[i]));
    }
  }
  fp.Add(window_rpcs);
  fp.Add(static_cast<uint64_t>(busy));
  fp.Add(sim.slab_capacity());
  for (auto field : Counters::kFields) {
    fp.Add(delta.*field);
  }

  if (traced) {
    run.client_call_ns += n == 0 ? 0.0 : call_s * 1e9 / static_cast<double>(n) / w.episodes;
    if (probe) {
      run.parse_ns = ParseNs(capture->frames());
      run.dedup_ns = DedupNs(capture->ids());
    }
    std::unordered_map<uint64_t, size_t> seq_of;
    seq_of.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      seq_of.emplace(request_ids[i], i);
    }
    const lauberhorn::SpanCollector& spans = *m.spans();
    run.span_dropped += spans.dropped();
    for (const lauberhorn::RequestSpan& span : spans.completed()) {
      const auto it = seq_of.find(span.request_id);
      if (it == seq_of.end() || due[it->second] < w.skip || !span.Complete()) {
        continue;
      }
      for (size_t s = 0; s < kSegments; ++s) {
        run.segment_us[s].push_back(lauberhorn::ToMicroseconds(span.Segment(s)));
      }
      if (rtt[it->second] >= 0) {
        run.uncovered_us.push_back(
            lauberhorn::ToMicroseconds(rtt[it->second] - span.Total()));
      }
    }
  }
  // The testbed (and the handler's pointer into `records`) goes first.
  testbed.reset();
}

// Episode e of a run: the run's seed for the first, derived seeds after.
uint64_t EpisodeSeed(uint64_t seed, int episode) {
  return episode == 0 ? seed : Mix(seed * 0x100000001b3ULL + static_cast<uint64_t>(episode));
}

StackRun RunStack(const Workload& w, size_t stack_index, uint64_t seed, bool traced) {
  StackRun run;
  for (int e = 0; e < w.episodes; ++e) {
    RunEpisode(w, stack_index, EpisodeSeed(seed, e), traced, e == 0, run);
  }
  return run;
}

struct Rep {
  std::array<StackRun, kNumStacks> stacks;
  double setup_s = 0.0;        // reference seconds, all stacks
  double wall_s = 0.0;         // reference seconds, all stacks
  double raw_wall_s = 0.0;     // host seconds, all stacks
  std::vector<double> ref_s;  // reference samples taken after each stack
};

// Host times of the repetitions of one kind (untraced or traced).
struct HostTimes {
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> raw_wall_s;
  std::vector<double> ref_s;
  std::array<std::vector<double>, kNumStacks> stack_wall_s;

  void Add(const Rep& rep) {
    setup_s.push_back(rep.setup_s);
    wall_s.push_back(rep.wall_s);
    raw_wall_s.push_back(rep.raw_wall_s);
    ref_s.insert(ref_s.end(), rep.ref_s.begin(), rep.ref_s.end());
    for (size_t s = 0; s < kNumStacks; ++s) {
      stack_wall_s[s].push_back(rep.stacks[s].wall_s);
    }
  }
};

// `ref_s` is the latest reference sample; it brackets the first stack and is
// updated to the sample taken after the last one.
Rep RunRep(const Workload& w, uint64_t seed, bool traced, double& ref_s) {
  Rep rep;
  for (size_t s = 0; s < kNumStacks; ++s) {
    StackRun& run = rep.stacks[s];
    run = RunStack(w, s, seed, traced);
    const double after = ReferenceSample();
    rep.ref_s.push_back(after);
    rep.raw_wall_s += run.wall_s;
    const double scale = kRefNominalS / (0.5 * (ref_s + after));
    ref_s = after;
    run.setup_s *= scale;
    run.wall_s *= scale;
    rep.setup_s += run.setup_s;
    rep.wall_s += run.wall_s;
  }
  return rep;
}

// Peak resident memory of this process image (VmHWM). getrusage's
// ru_maxrss is not used: Linux carries it across exec, so it would report
// the launching process's peak when that was larger.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

// Collects metrics in output order and renders the result line.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", entries_[i].value);
      out += (i == 0 ? "\"" : ", \"") + entries_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

std::string Name(StackKind stack) { return lauberhorn::ToString(stack); }

void AddEndToEnd(Metrics& out, const Rep& first, const HostTimes& host,
                 double peak_rss_mb) {
  const double wall_s = Median(host.wall_s);
  uint64_t completed = 0;
  Accounting total;
  for (const StackRun& run : first.stacks) {
    completed += run.completed;
    total += run.acct;
  }
  out.Add("setup_s", Median(host.setup_s), "s");
  out.Add("wall_s", wall_s, "s");
  out.Add("sim_rpcs_per_wall_s", static_cast<double>(completed) / wall_s, "1/s");
  out.Add("peak_rss_mb", peak_rss_mb, "MB");
  for (size_t s = 0; s < kNumStacks; ++s) {
    const StackRun& run = first.stacks[s];
    const std::string stack = Name(kStacks[s]);
    out.Add("rtt_p50_us." + stack, NearestRank(run.rtt_us, 0.50).value, "us");
    out.Add("rtt_p99_us." + stack, NearestRank(run.rtt_us, 0.99).value, "us");
    out.Add("cycles_per_rpc." + stack, run.CyclesPerRpc(), "cycles");
  }
  out.Add("ok_frac", 1.0 - total.FailedFrac(), "ratio");
}

// Simulated values come from the first traced repetition; host-time splits
// are medians over the untraced ones.
void AddPerLayer(Metrics& out, const Rep& traced, const HostTimes& untraced,
                 double trace_overhead_s) {
  const auto& wall = untraced.stack_wall_s;
  Accounting total;
  for (const StackRun& run : traced.stacks) {
    total += run.acct;
  }
  // One metric per stack, "<name>.<stack>", in stack order.
  const auto per_stack = [&](const std::string& name, const char* unit, const auto& value) {
    for (size_t s = 0; s < kNumStacks; ++s) {
      out.Add(name + "." + Name(kStacks[s]), value(traced.stacks[s], s), unit);
    }
  };
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  per_stack("sim.events", "count", [&](const StackRun& r, size_t) { return count(r.delta.events); });
  per_stack("sim.events_per_rpc", "events/rpc",
            [](const StackRun& r, size_t) { return PerRpc(r.delta.events, r.completed); });
  per_stack("sim.peak_pending", "count",
            [&](const StackRun& r, size_t) { return count(r.peak_pending); });
  per_stack("sim.host_ns_per_event", "ns", [&](const StackRun& r, size_t s) {
    return PerRpc(Median(wall[s]) * 1e9, r.delta.events);  // ns per event, 0 if none
  });
  per_stack("sim.wall_s", "s", [&](const StackRun&, size_t s) { return Median(wall[s]); });
  out.Add("sim.trace_overhead_s", trace_overhead_s, "s");
  out.Add("host.ref_sample_ms", Median(untraced.ref_s) * 1e3, "ms");

  const StackRun& bypass = traced.stacks[1];
  const StackRun& lbh = traced.stacks[2];
  out.Add("nic.poll_yield.bypass",
          PollYield(bypass.delta.bypass_rpcs, bypass.delta.empty_polls), "ratio");
  const double dispatches = count(lbh.delta.hot + lbh.delta.queued + lbh.delta.cold);
  const auto frac = [dispatches](uint64_t v) {
    return dispatches == 0 ? 0.0 : static_cast<double>(v) / dispatches;
  };
  out.Add("nic.hot_frac.lauberhorn", frac(lbh.delta.hot), "ratio");
  out.Add("nic.queued_frac.lauberhorn", frac(lbh.delta.queued), "ratio");
  out.Add("nic.cold_frac.lauberhorn", frac(lbh.delta.cold), "ratio");
  out.Add("nic.tryagains.lauberhorn", count(lbh.delta.tryagains), "count");
  out.Add("nic.central_queued.lauberhorn", count(lbh.delta.central_queued), "count");
  out.Add("nic.core_busy_us_mean.lauberhorn",
          PerRpc(lauberhorn::ToMicroseconds(static_cast<Duration>(lbh.delta.core_busy_ps)),
                 lbh.nic_cores),  // mean over cores, 0 if none
          "us");
  out.Add("nic.rx_drops.linux", count(traced.stacks[0].delta.rx_drops), "count");
  out.Add("nic.rx_drops.bypass", count(bypass.delta.rx_drops), "count");

  per_stack("net.packets_per_rpc", "packets/rpc",
            [](const StackRun& r, size_t) { return PerRpc(r.delta.fabric_packets, r.completed); });
  per_stack("net.fabric_drops", "count",
            [&](const StackRun& r, size_t) { return count(r.delta.fabric_drops); });
  per_stack("net.parse_ns", "ns", [](const StackRun& r, size_t) { return r.parse_ns; });
  out.Add("coherence.msgs_per_rpc.lauberhorn", PerRpc(lbh.delta.coherence_msgs, lbh.completed),
          "msgs/rpc");
  for (size_t s = 0; s < 2; ++s) {  // the two DMA-NIC stacks
    const StackRun& r = traced.stacks[s];
    out.Add("pcie.mmio_per_rpc." + Name(kStacks[s]), PerRpc(r.delta.mmio_ops, r.completed),
            "ops/rpc");
    out.Add("pcie.dma_bytes_per_rpc." + Name(kStacks[s]),
            PerRpc(r.delta.dma_bytes, r.completed), "B/rpc");
  }
  per_stack("os.busy_frac", "ratio", [](const StackRun& r, size_t) { return r.busy_frac; });

  per_stack("proto.dedup_replays", "count",
            [&](const StackRun& r, size_t) { return count(r.delta.dedup_replays); });
  per_stack("proto.dedup_inflight_drops", "count",
            [&](const StackRun& r, size_t) { return count(r.delta.dedup_inflight_drops); });
  per_stack("proto.dup_execs", "count",
            [&](const StackRun& r, size_t) { return count(r.acct.dup_execs); });
  per_stack("proto.dedup_ns", "ns", [](const StackRun& r, size_t) { return r.dedup_ns; });

  per_stack("core.client_call_ns", "ns",
            [](const StackRun& r, size_t) { return r.client_call_ns; });
  per_stack("core.retransmits_per_rpc", "retx/rpc",
            [](const StackRun& r, size_t) { return PerRpc(r.delta.retransmits, r.completed); });
  per_stack("core.timeouts", "count",
            [&](const StackRun& r, size_t) { return count(r.delta.timeouts); });
  per_stack("core.late_responses", "count",
            [&](const StackRun& r, size_t) { return count(r.delta.late_responses); });
  per_stack("core.samples", "count",
            [&](const StackRun& r, size_t) { return count(r.rtt_us.size()); });
  out.Add("core.failed_frac", total.FailedFrac(), "ratio");

  per_stack("fault.injected", "count",
            [&](const StackRun& r, size_t) { return count(r.delta.faults_injected); });

  // Span segments as total modelled time over the measured requests. Their
  // percentiles go to the stdout table: most are constants of the model
  // (wire and fixed-cost stages), identical for every seed. Segments that
  // are empty by construction are left out: admission and dispatch happen
  // at one instant on every stack, and the bypass poll loop picks up and
  // runs a request with no delivery or scheduling step.
  const auto modelled = [](size_t stack, size_t seg) {
    const std::string name = lauberhorn::SpanSegmentName(seg);
    return name != "dispatch" &&
           !(kStacks[stack] == StackKind::kBypass && (name == "deliver" || name == "sched"));
  };
  const auto ms = [](const std::vector<double>& us) {
    double total = 0.0;
    for (double v : us) {
      total += v;
    }
    return total / 1000.0;
  };
  for (size_t s = 0; s < kNumStacks; ++s) {
    const StackRun& r = traced.stacks[s];
    const std::string sfx = "." + Name(kStacks[s]);
    for (size_t seg = 0; seg < kSegments; ++seg) {
      if (!modelled(s, seg)) {
        continue;
      }
      out.Add(std::string("span.") + lauberhorn::SpanSegmentName(seg) + "_ms" + sfx,
              ms(r.segment_us[seg]), "ms");
    }
    out.Add("span.uncovered_ms" + sfx, ms(r.uncovered_us), "ms");
    out.Add("span.dropped" + sfx, count(r.span_dropped), "count");
    out.Add("span.samples" + sfx, count(r.segment_us[0].size()), "count");
  }
}

// Human-readable table: every percentile beside its sample count.
void PrintSummary(const Workload& w, const Rep& rep) {
  std::printf("workload %s\n", w.name);
  std::printf("%-11s %9s %9s %9s %9s %10s %8s %8s %8s %9s\n", "stack", "issued",
              "samples", "p50_us", "p99_us", "cyc/rpc", "failed", "dups", "timeouts",
              "wall_s");
  for (size_t s = 0; s < kNumStacks; ++s) {
    const StackRun& r = rep.stacks[s];
    const Percentile p50 = NearestRank(r.rtt_us, 0.50);
    const Percentile p99 = NearestRank(r.rtt_us, 0.99);
    std::printf("%-11s %9" PRIu64 " %9zu %9.3f %9.3f %10.1f %8" PRIu64 " %8" PRIu64
                " %8" PRIu64 " %9.3f\n",
                Name(kStacks[s]).c_str(), r.acct.issued, p50.samples, p50.value, p99.value,
                r.CyclesPerRpc(), r.acct.failed, r.acct.dup_execs, r.acct.timeouts,
                r.wall_s);
  }
}

// Traced runs: the modelled p50/p99 of every span segment, and of the
// client-side time no span covers (RTT - span total), with sample counts.
void PrintSpans(const Rep& rep) {
  std::printf("%-11s %-9s %8s %10s %10s\n", "stack", "segment", "samples", "p50_us",
              "p99_us");
  for (size_t s = 0; s < kNumStacks; ++s) {
    const StackRun& r = rep.stacks[s];
    const auto row = [&](const char* name, const std::vector<double>& us) {
      const Percentile p50 = NearestRank(us, 0.50);
      std::printf("%-11s %-9s %8zu %10.4f %10.4f\n", Name(kStacks[s]).c_str(), name,
                  p50.samples, p50.value, NearestRank(us, 0.99).value);
    };
    for (size_t seg = 0; seg < kSegments; ++seg) {
      row(lauberhorn::SpanSegmentName(seg), r.segment_us[seg]);
    }
    row("uncovered", r.uncovered_us);
    std::printf("%-11s spans dropped: %" PRIu64 "\n", Name(kStacks[s]).c_str(),
                r.span_dropped);
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strtol(value, &end, 10) != 0;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const Workload* w = nullptr;
  const std::vector<Workload> workloads = Workloads();
  for (const Workload& candidate : workloads) {
    if (args.workload == candidate.name) {
      w = &candidate;
    }
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Repetitions until the time budget is spent. With --trace 1 untraced and
  // traced repetitions alternate, so both see the same host conditions. The
  // model is deterministic: every repetition, traced or not, must reproduce
  // the first one's simulated results exactly.
  bool correct = true;
  std::optional<Rep> first;
  std::optional<Rep> first_traced;
  HostTimes untraced;
  HostTimes traced;
  double peak_rss_mb = 0.0;
  const auto check_same = [&](const Rep& rep, const char* what) {
    for (size_t s = 0; s < kNumStacks; ++s) {
      if (rep.stacks[s].fingerprint.value() != first->stacks[s].fingerprint.value()) {
        std::printf("MISMATCH: %s %s run differs from the first untraced run\n",
                    Name(kStacks[s]).c_str(), what);
        correct = false;
      }
    }
  };
  const auto t0 = Clock::now();
  ReferenceSample();  // warm-up: first-touch page faults, cold caches
  double ref_s = ReferenceSample();
  do {
    Rep rep = RunRep(*w, args.seed, false, ref_s);
    untraced.Add(rep);
    if (!first) {
      // Peak memory of running the workload once; later repetitions only
      // add allocator fragmentation.
      peak_rss_mb = PeakRssMb();
      first = std::move(rep);
    } else {
      check_same(rep, "untraced");
    }
    if (args.trace) {
      Rep traced_rep = RunRep(*w, args.seed, true, ref_s);
      traced.Add(traced_rep);
      check_same(traced_rep, "traced");
      if (!first_traced) {
        first_traced = std::move(traced_rep);
      }
    }
  } while (Seconds(Clock::now() - t0) < args.seconds);

  Accounting total;
  for (size_t s = 0; s < kNumStacks; ++s) {
    const StackRun& r = first->stacks[s];
    total += r.acct;
    if (!r.acct.Correct()) {
      std::printf("INCORRECT: %s: %" PRIu64 " wrong payloads, %" PRIu64
                  " unaccounted, %" PRIu64 " replies without execution\n",
                  Name(kStacks[s]).c_str(), r.acct.wrong_payload, r.acct.unaccounted,
                  r.acct.phantom);
      correct = false;
    }
    if (r.rtt_us.size() < 1000) {
      std::printf("INCORRECT: %s has %zu RTT samples, fewer than 1000\n",
                  Name(kStacks[s]).c_str(), r.rtt_us.size());
      correct = false;
    }
    if (r.acct.dup_execs > 0) {
      std::printf("DUPLICATE EXECUTIONS: %s executed %" PRIu64
                  " requests more than once (counted as failed)\n",
                  Name(kStacks[s]).c_str(), r.acct.dup_execs);
    }
  }
  PrintSummary(*w, *first);

  Metrics metrics;
  if (args.trace) {
    PrintSpans(*first_traced);
    AddPerLayer(metrics, *first_traced, untraced,
                Median(traced.wall_s) - Median(untraced.wall_s));
  } else {
    AddEndToEnd(metrics, *first, untraced, peak_rss_mb);
  }
  std::printf("repetitions: %zu untraced, %zu traced\n", untraced.wall_s.size(),
              traced.wall_s.size());
  std::printf("host: wall %.4f s (median untraced, host seconds), reference sample "
              "%.2f ms (median; %.2f ms at the reference speed)\n",
              Median(untraced.raw_wall_s), Median(untraced.ref_s) * 1e3, kRefNominalS * 1e3);
  // Every repetition replays the same seeded requests and is checked to end
  // them identically, so the seed's requests are counted once.
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", total.issued, total.failed, metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
