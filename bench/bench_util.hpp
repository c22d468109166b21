// Shared helpers for the experiment harnesses in bench/.
//
// Each bench binary regenerates one table or figure of the paper's §6,
// printing the same rows/series the paper reports. Measurements are
// wall-clock scan throughput in Mbps over synthetic traces (see DESIGN.md
// for the calibrated workload substitutions); absolute numbers depend on
// this machine, but the comparisons — who wins and by what factor — are the
// reproduction targets.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "dpi/engine.hpp"
#include "workload/pattern_gen.hpp"
#include "workload/traffic_gen.hpp"

namespace dpisvc::bench {

/// A single-middlebox spec over `patterns` (middlebox id 1, chain 1), the
/// configuration a standalone middlebox's DPI component uses.
inline dpi::EngineSpec spec_for(const std::vector<std::string>& patterns) {
  dpi::EngineSpec spec;
  dpi::MiddleboxProfile profile;
  profile.id = 1;
  profile.name = "bench";
  spec.middleboxes = {profile};
  dpi::PatternId id = 0;
  for (const std::string& p : patterns) {
    spec.exact_patterns.push_back(dpi::ExactPatternSpec{p, 1, id++});
  }
  spec.chains[1] = {1};
  return spec;
}

inline std::shared_ptr<const dpi::Engine> engine_for(
    const std::vector<std::string>& patterns,
    const dpi::EngineConfig& config = {}) {
  return dpi::Engine::compile(spec_for(patterns), config);
}

/// A combined two-middlebox spec (ids 1 and 2; chain 1 = both), the
/// virtual-DPI configuration of §5.1.
inline dpi::EngineSpec combined_spec_for(const std::vector<std::string>& set1,
                                         const std::vector<std::string>& set2) {
  dpi::EngineSpec spec;
  dpi::MiddleboxProfile a;
  a.id = 1;
  a.name = "mbox1";
  dpi::MiddleboxProfile b;
  b.id = 2;
  b.name = "mbox2";
  spec.middleboxes = {a, b};
  dpi::PatternId id = 0;
  for (const std::string& p : set1) {
    spec.exact_patterns.push_back(dpi::ExactPatternSpec{p, 1, id++});
  }
  id = 0;
  for (const std::string& p : set2) {
    spec.exact_patterns.push_back(dpi::ExactPatternSpec{p, 2, id++});
  }
  spec.chains[1] = {1, 2};
  spec.chains[2] = {1};
  spec.chains[3] = {2};
  return spec;
}

inline std::shared_ptr<const dpi::Engine> combined_engine_for(
    const std::vector<std::string>& set1,
    const std::vector<std::string>& set2,
    const dpi::EngineConfig& config = {}) {
  return dpi::Engine::compile(combined_spec_for(set1, set2), config);
}

/// What an engine holds resident: automaton and tables plus the hot kernel.
inline double resident_mb(const dpi::Engine& engine) {
  return static_cast<double>(engine.memory_bytes() +
                             engine.kernel_memory_bytes()) /
         1e6;
}

/// Scans the trace repeatedly until `min_bytes` have been processed and
/// returns throughput in Mbps. Match handling included (the realistic
/// configuration: collection, filtering, run compression).
inline double measure_scan_mbps(const dpi::Engine& engine, dpi::ChainId chain,
                                const workload::Trace& trace,
                                std::uint64_t min_bytes = 64ull << 20) {
  const std::uint64_t trace_bytes = workload::total_payload_bytes(trace);
  if (trace_bytes == 0) return 0.0;
  // Warm-up pass (page in the DFA).
  for (const workload::TracePacket& p : trace) {
    (void)engine.scan_packet(chain, p.payload);
  }
  std::uint64_t scanned = 0;
  Stopwatch watch;
  while (scanned < min_bytes) {
    for (const workload::TracePacket& p : trace) {
      (void)engine.scan_packet(chain, p.payload);
    }
    scanned += trace_bytes;
  }
  return to_mbps(scanned, watch.elapsed_seconds());
}

/// Benign HTTP-like trace calibrated to the paper's traces: > 90% of
/// packets matchless.
inline workload::Trace benign_trace(const std::vector<std::string>& patterns,
                                    std::size_t num_packets = 2000,
                                    std::uint64_t seed = 7) {
  workload::TrafficConfig config;
  config.num_packets = num_packets;
  config.num_flows = 64;
  config.planted_match_rate = 0.05;
  config.seed = seed;
  const std::size_t take = std::min<std::size_t>(patterns.size(), 32);
  config.planted_patterns.assign(patterns.begin(),
                                 patterns.begin() + static_cast<long>(take));
  return workload::generate_http_trace(config);
}

inline void print_header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

}  // namespace dpisvc::bench
