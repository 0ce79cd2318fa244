// RECOV — NIC hot recovery: OS-shadowed state, watchdog reset, chaos campaign.
//
// Part 1 (recover): kills the Lauberhorn NIC once mid-load and measures the
// recovery path end to end — watchdog detection + reset + shadow replay
// blackout, the goodput dip around the crash, and at-most-once across the
// outage (every sequence executes exactly once; delivered-but-unanswered
// requests are pinned in flight by the replay rules and surface as client
// timeouts, never as second executions). The run also publishes recovery
// into a cluster directory the way a dispatch plane would: the replica goes
// kDegraded while the shadow replays (LeastLoaded diverts) and back kUp
// after — never kDown, so the consistent-hash ring keeps every key in place
// (churn is measured and must be zero).
//
// Part 2 (chaos): FaultPlan::Chaos composes EVERY fault layer — burst loss,
// duplication, reordering, corruption, coherence fill delays, IOMMU bursts,
// DMA errors, OS crash windows, wedged endpoints, CC grant loss + ECN
// corruption, and periodic whole-NIC crashes — across many seeds. Three
// invariants must hold for every seed: zero duplicate executions, every
// call reaches a terminal outcome (no wedged termination), and span
// accounting closes (all completed spans monotonic; incomplete ones are
// covered by the dedup-replay/orphan counters).
//
// --smoke is the CI gate: the single-crash measurement plus a short chaos
// campaign over a few seeds, all gates enforced.
#include <cmath>

#include "bench/common.h"
#include "src/cluster/directory.h"
#include "src/cluster/lb_policy.h"

namespace lauberhorn {
namespace {

ServiceDef MakeCountingService(ExecutionLedger& ledger, Duration service_time) {
  ServiceDef def;
  def.service_id = 1;
  def.name = "counted-echo";
  def.udp_port = 7000;
  MethodDef method;
  method.method_id = 0;
  method.name = "counted";
  method.request_sig.args = {WireType::kU64, WireType::kBytes};
  method.response_sig.args = {WireType::kU64, WireType::kBytes};
  method.handler = ledger.Handler();
  method.SetFixedServiceTime(service_time);
  def.methods[0] = std::move(method);
  return def;
}

MachineConfig ReliableLauberhorn(uint64_t seed) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.platform = PlatformSpec::EnzianEci();
  config.num_cores = 8;
  config.seed = seed;
  config.client_retransmit_timeout = Microseconds(300);
  config.client_max_retransmits = 8;
  config.client_backoff_multiplier = 2.0;
  config.client_max_retransmit_timeout = Milliseconds(5);
  config.client_retransmit_jitter = 0.2;
  config.client_retry_budget_per_sec = 50000.0;
  config.server_dedup = true;
  return config;
}

// --- Part 1: single-crash recovery measurement -------------------------------

struct RecoverCell {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t done = 0;  // terminal outcomes delivered (any status)
  uint64_t dup_execs = 0;
  uint64_t total_execs = 0;
  uint64_t retransmits = 0;
  uint64_t recoveries = 0;
  uint64_t replayed_endpoints = 0;
  uint64_t replayed_dedup_completed = 0;
  uint64_t pinned_in_flight = 0;   // delivered-but-unanswered at crash
  uint64_t dropped_undelivered = 0;
  uint64_t crashed_polls = 0;
  uint64_t drops_nic_down = 0;
  uint64_t shadow_writes = 0;
  Duration blackout = 0;  // watchdog detection -> shadow replay done
  double goodput_before = 0;  // ok/ms mean before the crash
  double goodput_crash = 0;   // ok/ms in the crash millisecond
  double goodput_after = 0;   // ok/ms mean after recovery
  uint64_t marked_degraded = 0;
  uint64_t marked_up = 0;
  uint64_t marked_down = 0;
  uint64_t ring_moves_degraded = 0;  // hash assignments moved by kDegraded
  uint64_t ring_moves_down = 0;      // ...vs. what a kDown would have moved
};

RecoverCell MeasureRecovery(uint64_t seed) {
  MachineConfig config = ReliableLauberhorn(seed);
  const Duration crash_at = Milliseconds(5);
  config.faults.nic_crash.first_crash_at = crash_at;
  config.faults.nic_crash.crash_period = 0;  // one crash
  config.faults.nic_crash.reset_latency = Microseconds(80);

  ExecutionLedger ledger;
  Machine machine(std::move(config));
  const ServiceDef& svc = machine.AddService(
      MakeCountingService(ledger, Microseconds(1)), /*max_cores=*/4);
  machine.Start();
  machine.StartHotLoop(svc);

  // The cluster-plane view of this machine: one real replica among three (the
  // other two only shape the hash ring). Recovery publishes kDegraded/kUp.
  ServiceDirectory directory;
  for (uint32_t r = 0; r < 3; ++r) {
    directory.AddReplica(1, ReplicaInfo{});
  }
  NicRecoveryManager* recovery = machine.nic_recovery();
  recovery->on_recovery_begin = [&]() { directory.MarkDegraded(1, 0); };
  recovery->on_recovery_end = [&]() { directory.MarkUp(1, 0); };

  // Hash-ring churn: assignments of 512 keys with all replicas up, vs. the
  // same keys while replica 0 is degraded (stays a candidate), vs. replica 0
  // excluded (what a kDown would do). Degradation must move nothing.
  ConsistentHashPolicy ring;
  const std::vector<size_t> all = {0, 1, 2};
  const std::vector<size_t> without0 = {1, 2};
  std::vector<size_t> baseline;
  for (uint64_t key = 0; key < 512; ++key) {
    baseline.push_back(ring.Pick(directory, 1, all, key, 0));
  }

  machine.sim().RunUntil(Milliseconds(1));

  const double rate_rps = 40000.0;
  const Duration window = Milliseconds(12);
  const SimTime stop = machine.sim().Now() + window;
  const Duration gap = NanosecondsF(1e9 / rate_rps);
  const std::vector<uint8_t> payload(64, 0xab);

  RecoverCell cell;
  std::vector<uint64_t> ok_per_ms(32, 0);
  auto fire = std::make_shared<Function<void()>>();
  uint64_t seq = 0;
  *fire = [&machine, &svc, &cell, &ok_per_ms, &seq, fire, stop, gap,
           payload]() {
    if (machine.sim().Now() >= stop) {
      return;
    }
    std::vector<WireValue> args = {WireValue::U64(seq++),
                                   WireValue::Bytes(payload)};
    machine.client().Call(
        svc, 0, args, [&machine, &cell, &ok_per_ms](const RpcMessage& response, Duration) {
          ++cell.done;
          if (response.status == RpcStatus::kOk) {
            ++cell.ok;
            const size_t bucket =
                static_cast<size_t>(machine.sim().Now() / Milliseconds(1));
            if (bucket < ok_per_ms.size()) {
              ++ok_per_ms[bucket];
            }
          }
        });
    machine.sim().Schedule(gap, [fire]() { (*fire)(); });
  };
  (*fire)();
  machine.sim().RunUntil(stop + Milliseconds(15));

  cell.sent = seq;
  cell.retransmits = machine.client().retransmits();
  cell.total_execs = ledger.Total();
  cell.dup_execs = ledger.Duplicates();
  const auto& rec = recovery->stats();
  cell.recoveries = rec.recoveries;
  cell.replayed_endpoints = rec.replayed_endpoints;
  cell.replayed_dedup_completed = rec.replayed_dedup_completed;
  cell.pinned_in_flight = rec.replayed_dedup_in_flight;
  cell.dropped_undelivered = rec.dropped_undelivered;
  cell.blackout = rec.last_blackout;
  const auto& nic = machine.lauberhorn_nic()->stats();
  cell.crashed_polls = nic.crashed_polls;
  cell.drops_nic_down = nic.drops_nic_down;
  cell.shadow_writes = machine.nic_shadow()->writes();

  // Goodput shape around the crash millisecond (bucket 5): warm buckets
  // before, the crash bucket itself, and the recovered steady state.
  const size_t crash_bucket = static_cast<size_t>(crash_at / Milliseconds(1));
  double before = 0;
  for (size_t b = 2; b < crash_bucket; ++b) {
    before += static_cast<double>(ok_per_ms[b]);
  }
  cell.goodput_before = before / static_cast<double>(crash_bucket - 2);
  cell.goodput_crash = static_cast<double>(ok_per_ms[crash_bucket]);
  double after = 0;
  for (size_t b = crash_bucket + 2; b < 12; ++b) {
    after += static_cast<double>(ok_per_ms[b]);
  }
  cell.goodput_after = after / static_cast<double>(12 - crash_bucket - 2);

  cell.marked_degraded = directory.stats().marked_degraded;
  cell.marked_up = directory.stats().marked_up;
  cell.marked_down = directory.stats().marked_down;
  // Re-degrade for the churn measurement (the live recovery already marked
  // it up); a degraded replica stays in the candidate set.
  directory.MarkDegraded(1, 0);
  for (uint64_t key = 0; key < 512; ++key) {
    if (ring.Pick(directory, 1, all, key, 0) != baseline[key]) {
      ++cell.ring_moves_degraded;
    }
  }
  directory.MarkUp(1, 0);
  for (uint64_t key = 0; key < 512; ++key) {
    if (ring.Pick(directory, 1, without0, key, 0) != baseline[key]) {
      ++cell.ring_moves_down;
    }
  }
  return cell;
}

// --- Part 2: chaos campaign --------------------------------------------------

struct ChaosCell {
  uint64_t seed = 0;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t done = 0;
  uint64_t dup_execs = 0;
  uint64_t total_execs = 0;
  uint64_t nic_crashes = 0;
  uint64_t recoveries = 0;
  uint64_t os_crashes = 0;
  uint64_t net_drops = 0;
  uint64_t grant_losses = 0;
  uint64_t ecn_corruptions = 0;
  uint64_t retransmits = 0;
  uint64_t spans_completed = 0;
  uint64_t spans_incomplete = 0;  // completed spans missing stages
  uint64_t span_monotonic_violations = 0;
  uint64_t span_orphans_accounted = 0;  // replays + dup drops + reopens + marks
  uint64_t spans_open = 0;
};

ChaosCell MeasureChaos(uint64_t seed, bool smoke) {
  MachineConfig config = ReliableLauberhorn(seed);
  config.faults = FaultPlan::Chaos(1.0, seed);
  config.client_congestion = true;  // exercise the CC fault layer too
  config.enable_spans = true;

  ExecutionLedger ledger;
  Machine machine(std::move(config));
  const ServiceDef& svc = machine.AddService(
      MakeCountingService(ledger, Microseconds(1)), /*max_cores=*/4);
  machine.Start();
  machine.StartHotLoop(svc);
  machine.sim().RunUntil(Milliseconds(1));

  // The window covers the first NIC crash (8 ms), the first OS crash window
  // (20 ms) and, outside smoke, the second NIC crash (25 ms) — the outages
  // interleave by construction of the chaos plan.
  const double rate_rps = 8000.0;
  const Duration window = smoke ? Milliseconds(30) : Milliseconds(45);
  const SimTime stop = machine.sim().Now() + window;
  const Duration gap = NanosecondsF(1e9 / rate_rps);
  const std::vector<uint8_t> payload(64, 0xab);

  ChaosCell cell;
  cell.seed = seed;
  auto fire = std::make_shared<Function<void()>>();
  uint64_t seq = 0;
  *fire = [&machine, &svc, &cell, &seq, fire, stop, gap, payload]() {
    if (machine.sim().Now() >= stop) {
      return;
    }
    std::vector<WireValue> args = {WireValue::U64(seq++),
                                   WireValue::Bytes(payload)};
    machine.client().Call(svc, 0, args,
                          [&cell](const RpcMessage& response, Duration) {
                            ++cell.done;
                            if (response.status == RpcStatus::kOk) {
                              ++cell.ok;
                            }
                          });
    machine.sim().Schedule(gap, [fire]() { (*fire)(); });
  };
  (*fire)();
  // Drain past the full backoff ladder so every call reaches a terminal
  // outcome — the termination invariant below depends on it.
  machine.sim().RunUntil(stop + Milliseconds(40));

  cell.sent = seq;
  cell.total_execs = ledger.Total();
  cell.dup_execs = ledger.Duplicates();
  const auto& faults = machine.fault_injector()->stats();
  cell.nic_crashes = faults.nic_crashes;
  cell.os_crashes = faults.os_crashes;
  cell.net_drops = faults.net_drops;
  cell.grant_losses = faults.cc_grant_losses;
  cell.ecn_corruptions = faults.cc_ecn_corruptions;
  cell.recoveries = machine.nic_recovery()->stats().recoveries;
  cell.retransmits = machine.client().retransmits();

  const SpanCollector& spans = *machine.spans();
  for (const RequestSpan& span : spans.completed()) {
    ++cell.spans_completed;
    if (!span.Complete()) {
      ++cell.spans_incomplete;
    }
    if (!span.Monotonic()) {
      ++cell.span_monotonic_violations;
    }
  }
  cell.spans_open = spans.open_count();
  const auto& nic = machine.lauberhorn_nic()->stats();
  cell.span_orphans_accounted = nic.dup_replays + nic.dup_drops_in_flight +
                                spans.reopened() + spans.orphan_marks();
  return cell;
}

}  // namespace
}  // namespace lauberhorn

int main(int argc, char** argv) {
  using namespace lauberhorn;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  PrintHeader("RECOV",
              "NIC hot recovery: shadow replay blackout + randomized chaos campaign");

  Gates gates;
  std::vector<std::string> json_rows;

  // -- Part 1: single crash under load --
  const RecoverCell r = MeasureRecovery(args.seed);
  Table recover({"metric", "value"});
  recover.AddRow({"sent", Table::Int(static_cast<int64_t>(r.sent))});
  recover.AddRow({"goodput", Table::Int(static_cast<int64_t>(r.ok))});
  recover.AddRow({"blackout (us)", Us(r.blackout)});
  recover.AddRow({"goodput before (ok/ms)", Table::Num(r.goodput_before, 1)});
  recover.AddRow({"goodput crash ms (ok/ms)", Table::Num(r.goodput_crash, 1)});
  recover.AddRow({"goodput after (ok/ms)", Table::Num(r.goodput_after, 1)});
  recover.AddRow({"recoveries", Table::Int(static_cast<int64_t>(r.recoveries))});
  recover.AddRow({"replayed endpoints", Table::Int(static_cast<int64_t>(r.replayed_endpoints))});
  recover.AddRow({"replayed dedup (completed)", Table::Int(static_cast<int64_t>(r.replayed_dedup_completed))});
  recover.AddRow({"pinned in flight", Table::Int(static_cast<int64_t>(r.pinned_in_flight))});
  recover.AddRow({"dropped undelivered", Table::Int(static_cast<int64_t>(r.dropped_undelivered))});
  recover.AddRow({"crashed polls", Table::Int(static_cast<int64_t>(r.crashed_polls))});
  recover.AddRow({"drops while down", Table::Int(static_cast<int64_t>(r.drops_nic_down))});
  recover.AddRow({"shadow writes", Table::Int(static_cast<int64_t>(r.shadow_writes))});
  recover.AddRow({"retransmits", Table::Int(static_cast<int64_t>(r.retransmits))});
  recover.AddRow({"dup execs", Table::Int(static_cast<int64_t>(r.dup_execs))});
  recover.AddRow({"ring moves (degraded)", Table::Int(static_cast<int64_t>(r.ring_moves_degraded))});
  recover.AddRow({"ring moves (down)", Table::Int(static_cast<int64_t>(r.ring_moves_down))});
  PrintTable(recover, args.csv);

  {
    JsonObject row;
    row.Field("mode", std::string("recover"))
        .Field("sent", r.sent)
        .Field("goodput", r.ok)
        .Field("blackout_us", ToMicroseconds(r.blackout))
        .Field("goodput_before_per_ms", r.goodput_before)
        .Field("goodput_crash_per_ms", r.goodput_crash)
        .Field("goodput_after_per_ms", r.goodput_after)
        .Field("recoveries", r.recoveries)
        .Field("replayed_endpoints", r.replayed_endpoints)
        .Field("replayed_dedup_completed", r.replayed_dedup_completed)
        .Field("pinned_in_flight", r.pinned_in_flight)
        .Field("dropped_undelivered", r.dropped_undelivered)
        .Field("crashed_polls", r.crashed_polls)
        .Field("drops_nic_down", r.drops_nic_down)
        .Field("shadow_writes", r.shadow_writes)
        .Field("retransmits", r.retransmits)
        .Field("duplicate_executions", r.dup_execs)
        .Field("marked_degraded", r.marked_degraded)
        .Field("marked_up", r.marked_up)
        .Field("marked_down", r.marked_down)
        .Field("ring_moves_degraded", r.ring_moves_degraded)
        .Field("ring_moves_down", r.ring_moves_down);
    json_rows.push_back(row.Render());
  }

  // Acceptance gates for the recovery path.
  gates.Check(r.dup_execs == 0,
              "%" PRIu64 " sequences executed more than once across the crash",
              r.dup_execs);
  gates.Check(r.total_execs == r.sent,
              "%" PRIu64 " executions for %" PRIu64
              " sent (at-most-once accounting broken)",
              r.total_execs, r.sent);
  gates.Check(r.done == r.sent,
              "only %" PRIu64 " of %" PRIu64 " calls reached a terminal outcome",
              r.done, r.sent);
  gates.Check(r.recoveries == 1, "expected exactly one recovery, saw %" PRIu64,
              r.recoveries);
  gates.Check(r.blackout > 0 && r.blackout <= Microseconds(500),
              "blackout %.1f us outside (0, 500] us", ToMicroseconds(r.blackout));
  gates.Check(r.goodput_after >= 0.8 * r.goodput_before,
              "goodput did not recover (%.1f/ms after vs %.1f/ms before)",
              r.goodput_after, r.goodput_before);
  gates.Check(r.marked_degraded == 1 && r.marked_up == 1 && r.marked_down == 0,
              "directory saw degraded=%" PRIu64 " up=%" PRIu64 " down=%" PRIu64
              " (want 1/1/0)",
              r.marked_degraded, r.marked_up, r.marked_down);
  gates.Check(r.ring_moves_degraded == 0,
              "kDegraded moved %" PRIu64 " hash-ring keys (must be 0)",
              r.ring_moves_degraded);

  // -- Part 2: chaos campaign --
  const int num_seeds = args.smoke ? 4 : 24;
  std::vector<uint64_t> seeds;
  for (int i = 0; i < num_seeds; ++i) {
    seeds.push_back(args.seed + static_cast<uint64_t>(i) * 101);
  }
  const std::vector<ChaosCell> cells = RunTrialsParallel(
      num_seeds,
      [&](int i) { return MeasureChaos(seeds[static_cast<size_t>(i)], args.smoke); });

  std::printf("\nChaos campaign: all fault layers composed, %d seeds\n", num_seeds);
  Table chaos({"seed", "sent", "goodput", "retx", "nic-crash", "recover",
               "os-crash", "drops", "grant-loss", "ecn-flip", "spans",
               "incomplete", "open", "dup-execs"});
  for (const ChaosCell& cell : cells) {
    chaos.AddRow({Table::Int(static_cast<int64_t>(cell.seed)),
                  Table::Int(static_cast<int64_t>(cell.sent)),
                  Table::Int(static_cast<int64_t>(cell.ok)),
                  Table::Int(static_cast<int64_t>(cell.retransmits)),
                  Table::Int(static_cast<int64_t>(cell.nic_crashes)),
                  Table::Int(static_cast<int64_t>(cell.recoveries)),
                  Table::Int(static_cast<int64_t>(cell.os_crashes)),
                  Table::Int(static_cast<int64_t>(cell.net_drops)),
                  Table::Int(static_cast<int64_t>(cell.grant_losses)),
                  Table::Int(static_cast<int64_t>(cell.ecn_corruptions)),
                  Table::Int(static_cast<int64_t>(cell.spans_completed)),
                  Table::Int(static_cast<int64_t>(cell.spans_incomplete)),
                  Table::Int(static_cast<int64_t>(cell.spans_open)),
                  Table::Int(static_cast<int64_t>(cell.dup_execs))});
    JsonObject row;
    row.Field("mode", std::string("chaos"))
        .Field("seed", cell.seed)
        .Field("sent", cell.sent)
        .Field("goodput", cell.ok)
        .Field("retransmits", cell.retransmits)
        .Field("nic_crashes", cell.nic_crashes)
        .Field("recoveries", cell.recoveries)
        .Field("os_crashes", cell.os_crashes)
        .Field("net_drops", cell.net_drops)
        .Field("grant_losses", cell.grant_losses)
        .Field("ecn_corruptions", cell.ecn_corruptions)
        .Field("spans_completed", cell.spans_completed)
        .Field("spans_incomplete", cell.spans_incomplete)
        .Field("spans_open", cell.spans_open)
        .Field("span_orphans_accounted", cell.span_orphans_accounted)
        .Field("duplicate_executions", cell.dup_execs);
    json_rows.push_back(row.Render());

    // Invariants, per seed.
    gates.Check(cell.dup_execs == 0,
                "seed %" PRIu64 " executed %" PRIu64 " sequences twice",
                cell.seed, cell.dup_execs);
    gates.Check(cell.done == cell.sent,
                "seed %" PRIu64 " terminated %" PRIu64 " of %" PRIu64 " calls",
                cell.seed, cell.done, cell.sent);
    gates.Check(cell.ok != 0, "seed %" PRIu64 " completed nothing", cell.seed);
    gates.Check(cell.nic_crashes != 0 && cell.recoveries == cell.nic_crashes,
                "seed %" PRIu64 " recovered %" PRIu64 " of %" PRIu64
                " NIC crashes",
                cell.seed, cell.recoveries, cell.nic_crashes);
    gates.Check(cell.span_monotonic_violations == 0,
                "seed %" PRIu64 " has %" PRIu64 " non-monotonic spans",
                cell.seed, cell.span_monotonic_violations);
    // Span completeness: a completed span may miss stages only when the
    // response came from the dedup cache / a retransmit reopened it — all
    // accounted by the NIC's duplicate counters and the collector's own
    // orphan bookkeeping.
    gates.Check(cell.spans_incomplete <= cell.span_orphans_accounted,
                "seed %" PRIu64 " has %" PRIu64 " incomplete spans, only %" PRIu64
                " accounted",
                cell.seed, cell.spans_incomplete, cell.span_orphans_accounted);
  }
  PrintTable(chaos, args.csv);

  if (!args.json.empty()) {
    JsonObject doc;
    doc.Field("bench", std::string("RECOV"))
        .Field("seed", args.seed)
        .Field("smoke", args.smoke)
        .Field("chaos_seeds", static_cast<uint64_t>(num_seeds))
        .Raw("rows", JsonArray(json_rows));
    if (!WriteJsonFile(args.json, doc.Render())) {
      return 1;
    }
  }

  std::printf("\nExpected shape: one crash costs a sub-millisecond blackout (watchdog\n"
              "detection + reset + shadow replay); goodput dips in the crash millisecond\n"
              "and recovers; the directory publishes degraded->up with zero hash-ring\n"
              "churn; and the chaos campaign holds zero duplicate executions and full\n"
              "termination on every seed.\n");
  return gates.Exit();
}
