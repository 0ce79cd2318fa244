// Shared helpers for the benchmark binaries. Each bench regenerates one
// figure/table of the paper (see DESIGN.md §4 and EXPERIMENTS.md).
#ifndef BENCH_COMMON_H_
#define BENCH_COMMON_H_

#include <atomic>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/machine.h"
#include "src/stats/table.h"
#include "src/workload/generator.h"

namespace lauberhorn {

inline std::string Us(Duration d) { return Table::Num(ToMicroseconds(d), 2); }

inline void PrintHeader(const std::string& id, const std::string& title) {
  std::printf("\n=== %s: %s ===\n\n", id.c_str(), title.c_str());
}

// Uniform command-line surface for every bench binary (EXPERIMENTS.md):
//   --csv        additionally dump machine-readable rows for plotting
//   --trials N   repeat the measurement N times (benches that average/fan out)
//   --seed S     base RNG seed (trial i derives seed S + i)
//   --json PATH  write a machine-readable BENCH_*.json result to PATH
//   --smoke      CI mode: shrink the workload so the bench finishes in seconds
//   --trace PATH write a Chrome trace-event JSON (benches that record spans)
//   --shards N   parallel simulation shards (testbed benches; 1 = sequential)
struct BenchArgs {
  bool csv = false;
  bool smoke = false;
  int trials = 1;
  uint64_t seed = 1;
  int shards = 1;
  std::string json;
  std::string trace;

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next_value = [&](const char* flag) -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for %s\n", flag);
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--csv") {
        args.csv = true;
      } else if (arg == "--smoke") {
        args.smoke = true;
      } else if (arg == "--trials") {
        args.trials = std::atoi(next_value("--trials"));
      } else if (arg == "--seed") {
        args.seed = static_cast<uint64_t>(std::strtoull(next_value("--seed"), nullptr, 10));
      } else if (arg == "--json") {
        args.json = next_value("--json");
      } else if (arg == "--trace") {
        args.trace = next_value("--trace");
      } else if (arg == "--shards") {
        args.shards = std::atoi(next_value("--shards"));
        if (args.shards < 1) {
          std::fprintf(stderr, "--shards must be >= 1\n");
          std::exit(2);
        }
      } else {
        std::fprintf(stderr,
                     "unknown flag %s (supported: --csv --trials N --seed S "
                     "--json PATH --trace PATH --smoke --shards N)\n",
                     arg.c_str());
        std::exit(2);
      }
    }
    return args;
  }
};

// Threads a sharded run actually uses: 1 when shards == 1 (the engine runs
// inline on the caller), else one thread per shard. Warns — once per call —
// when the request oversubscribes the hardware, so reported speedups are
// honest about timeslicing.
inline unsigned ShardThreadsUsed(int shards) {
  const unsigned used = shards <= 1 ? 1u : static_cast<unsigned>(shards);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw != 0 && used > hw) {
    std::fprintf(stderr,
                 "warning: --shards %d exceeds hardware concurrency (%u); "
                 "shard threads will timeslice and speedups will be "
                 "pessimistic\n",
                 shards, hw);
  }
  return used;
}

inline void PrintTable(const Table& table, bool csv) {
  table.Print();
  if (csv) {
    std::printf("\n--- csv ---\n%s", table.ToCsv().c_str());
  }
}

// Fans `trials` independent jobs across up to `max_threads` std::threads and
// returns the per-trial results in trial order. Each Machine/Simulator stays
// single-threaded and fully deterministic — trials share nothing, so runs
// are embarrassingly parallel and the result for trial i is byte-identical
// to a serial run. `fn` receives the trial index and must not touch shared
// mutable state.
template <typename Fn>
auto RunTrialsParallel(int trials, Fn fn, unsigned max_threads = 0)
    -> std::vector<decltype(fn(0))> {
  using Result = decltype(fn(0));
  std::vector<Result> results(static_cast<size_t>(trials));
  if (trials <= 0) {
    return results;
  }
  unsigned threads = max_threads != 0 ? max_threads : std::thread::hardware_concurrency();
  if (threads == 0) {
    threads = 1;
  }
  if (threads > static_cast<unsigned>(trials)) {
    threads = static_cast<unsigned>(trials);
  }
  if (threads == 1) {
    for (int i = 0; i < trials; ++i) {
      results[static_cast<size_t>(i)] = fn(i);
    }
    return results;
  }
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&results, &next, &fn, trials] {
      for (int i = next.fetch_add(1); i < trials; i = next.fetch_add(1)) {
        results[static_cast<size_t>(i)] = fn(i);
      }
    });
  }
  for (std::thread& th : pool) {
    th.join();
  }
  return results;
}

// Minimal JSON builder for BENCH_*.json emitters (schema: EXPERIMENTS.md).
// Produces {"k": v, ...} objects and [v, ...] arrays; no escaping beyond
// what bench names need (no quotes/backslashes in keys or values).
class JsonObject {
 public:
  JsonObject& Field(const std::string& key, const std::string& string_value) {
    return Raw(key, "\"" + string_value + "\"");
  }
  JsonObject& Field(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return Raw(key, buf);
  }
  JsonObject& Field(const std::string& key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Field(const std::string& key, int value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Field(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  // Embeds a pre-rendered JSON value (a nested object or array).
  JsonObject& Raw(const std::string& key, const std::string& json_value) {
    body_ += body_.empty() ? "" : ", ";
    body_ += "\"" + key + "\": " + json_value;
    return *this;
  }
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

inline std::string JsonArray(const std::vector<std::string>& json_values) {
  std::string out = "[";
  for (size_t i = 0; i < json_values.size(); ++i) {
    out += (i != 0 ? ", " : "") + json_values[i];
  }
  return out + "]";
}

// Writes a BENCH_*.json payload; returns false (with a note on stderr) on
// I/O failure so benches can exit nonzero.
inline bool WriteJsonFile(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "%s\n", json.c_str());
  std::fclose(f);
  return true;
}

// A bench's acceptance gates. Every failed check prints one
// "VIOLATION: ..." line on stderr and is counted; Exit() turns any failure
// into exit status 1.
class Gates {
 public:
  // Records a violation unless `holds`; `fmt` is a printf format.
  __attribute__((format(printf, 3, 4))) void Check(bool holds, const char* fmt,
                                                   ...) {
    if (holds) {
      return;
    }
    std::va_list args;
    va_start(args, fmt);
    std::fprintf(stderr, "VIOLATION: ");
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
    va_end(args);
    ++count_;
  }
  int count() const { return count_; }
  // The bench's exit status: 0 when every check held, else 1.
  int Exit() const {
    if (count_ > 0) {
      std::fprintf(stderr, "%d violation(s)\n", count_);
      return 1;
    }
    std::printf("\nall gates passed\n");
    return 0;
  }

 private:
  int count_ = 0;
};

// Handler executions per sequence number, the end-to-end witness of
// at-most-once execution. Each request carries a unique sequence number in
// argument 0 (handlers never see request ids).
class ExecutionLedger {
 public:
  // Handlers hold the ledger's address, so it never moves.
  ExecutionLedger() = default;
  ExecutionLedger(const ExecutionLedger&) = delete;
  ExecutionLedger& operator=(const ExecutionLedger&) = delete;

  // A handler that counts one execution of args[0] and echoes its
  // arguments back.
  std::function<std::vector<WireValue>(const std::vector<WireValue>&)>
  Handler() {
    return [this](const std::vector<WireValue>& args) {
      ++executions_[args.at(0).scalar];
      return args;
    };
  }
  // Adds another ledger's counts: a retried request may execute on several
  // machines, so cluster-wide duplicates are judged on the merged ledger.
  void Merge(const ExecutionLedger& other) {
    for (const auto& [seq, count] : other.executions_) {
      executions_[seq] += count;
    }
  }
  // Sequence numbers executed more than once.
  uint64_t Duplicates() const {
    uint64_t duplicates = 0;
    for (const auto& [seq, count] : executions_) {
      duplicates += count > 1;
    }
    return duplicates;
  }
  // Executions of all sequence numbers.
  uint64_t Total() const {
    uint64_t total = 0;
    for (const auto& [seq, count] : executions_) {
      total += count;
    }
    return total;
  }

 private:
  std::unordered_map<uint64_t, uint32_t> executions_;
};

// Builds a machine with one echo service and runs a closed-loop warm-up so
// steady-state measurements exclude cold-start effects.
struct EchoSetup {
  std::unique_ptr<Machine> machine;
  const ServiceDef* echo = nullptr;

  static EchoSetup Make(StackKind stack, PlatformSpec platform, int cores = 8,
                        Duration service_time = Nanoseconds(0), int max_cores = 1) {
    EchoSetup setup;
    MachineConfig config;
    config.stack = stack;
    config.platform = std::move(platform);
    config.num_cores = cores;
    config.nic_queues = stack == StackKind::kBypass ? 4 : 2;
    setup.machine = std::make_unique<Machine>(std::move(config));
    setup.echo = &setup.machine->AddService(
        ServiceRegistry::MakeEchoService(1, 7000, service_time), max_cores);
    setup.machine->Start();
    if (stack == StackKind::kLauberhorn) {
      setup.machine->StartHotLoop(*setup.echo);
    }
    setup.machine->sim().RunUntil(Milliseconds(1));
    return setup;
  }
};

}  // namespace lauberhorn

#endif  // BENCH_COMMON_H_
