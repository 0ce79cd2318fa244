// Platform cost models: bundles of coherence / PCIe / OS / NIC-pipeline
// parameters describing the machines the paper measures or projects:
//
//  * Enzian with the ECI coherent interconnect (the Lauberhorn prototype),
//  * Enzian over its (comparatively slow, FPGA-attached) PCIe DMA path,
//  * a modern PC server with a conventional PCIe Gen4 DMA NIC,
//  * a CXL.mem-3.0-class projection (§4 anticipates comparable gains).
//
// Values are calibrated to the cited literature (DESIGN.md §7); benches may
// copy a spec and perturb it for ablations.
#ifndef SRC_NIC_COST_MODEL_H_
#define SRC_NIC_COST_MODEL_H_

#include <string>

#include "src/coherence/coherence.h"
#include "src/net/link.h"
#include "src/os/cost_model.h"
#include "src/pcie/pcie_link.h"

namespace lauberhorn {

// Latencies of the NIC's on-chip RX/TX pipeline stages (FPGA or ASIC).
struct NicPipelineCosts {
  Duration mac_rx = Nanoseconds(100);          // MAC + FIFO into the pipeline
  Duration parse_per_header = Nanoseconds(40);  // one streaming header decoder
  Duration demux_lookup = Nanoseconds(60);      // flow/endpoint table lookup
  Duration unmarshal_fixed = Nanoseconds(80);   // deserialization accel, fixed
  double unmarshal_per_byte_ns = 0.05;          // ... plus streaming cost
  Duration dispatch_decide = Nanoseconds(50);   // scheduling-state consultation
  Duration tx_fixed = Nanoseconds(120);         // response assembly + MAC TX
  Duration rss_hash = Nanoseconds(30);          // Toeplitz-style hash (DMA NIC)
  // Inline crypto engine (AES-GCM class, near line rate).
  Duration crypto_fixed = Nanoseconds(40);
  double crypto_bytes_per_ns = 50.0;

  Duration UnmarshalCost(size_t payload_bytes) const {
    return unmarshal_fixed +
           NanosecondsF(unmarshal_per_byte_ns * static_cast<double>(payload_bytes));
  }
  Duration CryptoCost(size_t bytes) const {
    return crypto_fixed + NanosecondsF(static_cast<double>(bytes) / crypto_bytes_per_ns);
  }
};

// Lauberhorn protocol parameters (§5.1).
struct LauberhornParams {
  // TRYAGAIN deadline for user endpoints; must be < coherence bus_timeout.
  Duration tryagain_timeout = Milliseconds(15);
  // Kernel-channel TRYAGAIN: bounds how long a dispatcher kthread is parked,
  // so it can periodically call schedule() / handle RCU (§5.2).
  Duration kernel_tryagain_timeout = Microseconds(100);
  // AUX lines per endpoint (payload capacity = (1 + aux) * line_size - header).
  size_t aux_lines = 30;
  // Payload size beyond which the NIC reverts to DMA transfers (§6).
  size_t dma_fallback_bytes = 4096;
  // Bound on NIC-side queued requests per endpoint before drops.
  size_t endpoint_queue_depth = 256;
  // Bound on the shared cold (kernel-channel) queue: past this the
  // NIC sheds with kOverloaded instead of queueing without bound.
  size_t cold_queue_depth = 4096;
  // Graceful degradation: a TRYAGAIN that fires while requests are queued
  // means the hot path is not delivering. After this many in a row the NIC
  // demotes the endpoint to the cold (kernel-channel) path...
  uint32_t degrade_tryagain_threshold = 16;
  // ...for this long, after which the hot path gets another chance.
  Duration degrade_backoff = Microseconds(200);
  // Ablation of Fig. 4's response path: instead of a cached store that the
  // NIC pulls back with fetch-exclusive, the CPU pushes the response with
  // posted uncached writes (write-combining PIO, as in Ruzhanskaia et al.).
  // Saves the RFO round trip at the cost of uncacheable stores.
  bool posted_responses = false;
  // CPU cost of issuing one posted line write (WC buffer drain share).
  Duration posted_write_cost = Nanoseconds(15);
};

struct PlatformSpec {
  std::string name;
  CoherenceConfig coherence;
  PcieConfig pcie;
  OsCostModel os;
  NicPipelineCosts pipeline;
  LauberhornParams lauberhorn;
  LinkConfig wire;  // the Ethernet link to clients

  // Enzian: ThunderX-1 cores at 2 GHz, 128 B lines, ECI hops ≈ 350 ns,
  // FPGA-attached PCIe is slow; 100 GbE.
  static PlatformSpec EnzianEci();
  // Same machine, but CPU<->NIC interaction over its PCIe DMA path.
  static PlatformSpec EnzianPcie();
  // Modern x86 server, PCIe Gen4 DMA NIC, 64 B lines.
  static PlatformSpec ModernPcPcie();
  // CXL.mem 3.0 projection: device-homed lines at ~120 ns hops.
  static PlatformSpec Cxl3Projection();
};

}  // namespace lauberhorn

#endif  // SRC_NIC_COST_MODEL_H_
