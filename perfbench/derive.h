// Pure derivations behind the benchmark's reported numbers: percentiles with
// their sample counts, per-request outcome accounting, and the guarded
// ratios. Kept free of simulator types so derive_test.cc can check them on
// synthetic inputs.
#ifndef PERFBENCH_DERIVE_H_
#define PERFBENCH_DERIVE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

struct Percentile {
  double value = 0.0;  // 0 when there are no samples
  size_t samples = 0;
};

// Nearest-rank percentile: the smallest sample with at least q of all
// samples at or below it. q is in (0, 1].
inline Percentile NearestRank(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) {
    return p;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  return p;
}

// Median of host-time repetitions (mean of the middle two for even counts).
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// `amount` per completed RPC; 0 when no RPC completed (never a division by
// zero, never NaN in the printed JSON).
inline double PerRpc(double amount, uint64_t rpcs) {
  return rpcs == 0 ? 0.0 : amount / static_cast<double>(rpcs);
}

// Useful share of bypass poll iterations: RPCs / (RPCs + empty polls).
// 0 when the loop never polled.
inline double PollYield(uint64_t rpcs, uint64_t empty_polls) {
  const uint64_t polls = rpcs + empty_polls;
  return polls == 0 ? 0.0 : static_cast<double>(rpcs) / static_cast<double>(polls);
}

// How one issued request ended, as the client callback reported it.
enum class Outcome : uint8_t { kOk, kTimedOut, kShed, kError };

struct RequestRecord {
  Outcome outcome = Outcome::kOk;
  uint32_t endings = 0;       // client callbacks seen (must be exactly 1)
  uint32_t executions = 0;    // handler runs for this sequence number
  bool payload_ok = true;     // every kOk reply echoed this request
};

struct Accounting {
  uint64_t issued = 0;
  uint64_t ok = 0;             // ended kOk with a correct payload, run once
  uint64_t timeouts = 0;
  uint64_t errors = 0;
  uint64_t sheds = 0;
  uint64_t wrong_payload = 0;  // kOk reply that did not echo the request
  uint64_t dup_execs = 0;      // sequences whose handler ran more than once
  uint64_t unaccounted = 0;    // ended zero times or more than once
  uint64_t phantom = 0;        // kOk reply although the handler never ran
  // Requests that failed for any of the reasons above, each counted once.
  uint64_t failed = 0;

  // Failures that make the run incorrect, not merely slower or lossy:
  // duplicates are the known at-most-once defect and are only counted.
  bool Correct() const {
    return wrong_payload == 0 && unaccounted == 0 && phantom == 0;
  }
  double FailedFrac() const {
    return issued == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(issued);
  }
  Accounting& operator+=(const Accounting& o) {
    issued += o.issued;
    ok += o.ok;
    timeouts += o.timeouts;
    errors += o.errors;
    sheds += o.sheds;
    wrong_payload += o.wrong_payload;
    dup_execs += o.dup_execs;
    unaccounted += o.unaccounted;
    phantom += o.phantom;
    failed += o.failed;
    return *this;
  }
};

inline Accounting Account(const std::vector<RequestRecord>& records) {
  Accounting a;
  a.issued = records.size();
  for (const RequestRecord& r : records) {
    bool failed = false;
    if (r.endings != 1) {
      ++a.unaccounted;
      failed = true;
    }
    if (r.executions > 1) {
      ++a.dup_execs;
      failed = true;
    }
    if (r.endings >= 1) {
      switch (r.outcome) {
        case Outcome::kOk:
          if (!r.payload_ok) {
            ++a.wrong_payload;
            failed = true;
          } else if (r.executions == 0) {
            ++a.phantom;
            failed = true;
          }
          break;
        case Outcome::kTimedOut:
          ++a.timeouts;
          failed = true;
          break;
        case Outcome::kShed:
          ++a.sheds;
          failed = true;
          break;
        case Outcome::kError:
          ++a.errors;
          failed = true;
          break;
      }
    }
    if (failed) {
      ++a.failed;
    } else {
      ++a.ok;
    }
  }
  return a;
}

}  // namespace perfbench

#endif  // PERFBENCH_DERIVE_H_
