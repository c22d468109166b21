// Sharded scan-pool throughput: packets/sec and batch-latency percentiles
// vs. worker count, for a stateless and a stateful policy chain.
//
// The sharded data plane (service/instance.hpp) promises that adding
// workers scales scan throughput without changing results; this harness
// measures that curve. Each run submits the same interleaved multi-flow
// trace through DpiInstance::scan_batch() at worker counts 1/2/4/8 and
// reports packets/sec plus p50/p99 per-batch submit latency.
//
// NOTE on scaling expectations: real speedup requires real cores, and the
// hardware threads a machine reports are not the cores it delivers to a
// memory-bound scan. perfbench measures that (`service.cores_used`,
// `service.parallel_capacity`); read a flat curve here against those.
//
// Usage: bench_scan_mt [num_packets] [repeats]
//   num_packets  trace size (default 20000; CI smoke passes e.g. 2000)
//   repeats      times the trace is replayed per configuration (default 3)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "service/instance.hpp"

namespace dpisvc::bench {
namespace {

/// Two-middlebox engine with both a stateless chain (1) and a stateful
/// chain (2), over snort-like pattern sets — the virtual-DPI configuration
/// the sharded instance serves in production.
std::shared_ptr<const dpi::Engine> mt_engine(std::size_t num_patterns) {
  dpi::EngineSpec spec;
  dpi::MiddleboxProfile ids;
  ids.id = 1;
  ids.name = "ids";
  dpi::MiddleboxProfile fw;
  fw.id = 2;
  fw.name = "session-fw";
  fw.stateful = true;
  spec.middleboxes = {ids, fw};
  dpi::PatternId rule = 0;
  for (const auto& pattern :
       workload::generate_patterns(workload::snort_like(num_patterns, 17))) {
    spec.exact_patterns.push_back(dpi::ExactPatternSpec{
        pattern, static_cast<dpi::MiddleboxId>(1 + rule % 2), rule});
    ++rule;
  }
  spec.chains[1] = {1};     // stateless: no flow-table traffic
  spec.chains[2] = {1, 2};  // stateful: per-flow cursors on every packet
  return dpi::Engine::compile(spec);
}

std::vector<service::ScanItem> items_for(const workload::Trace& trace,
                                         dpi::ChainId chain) {
  std::vector<service::ScanItem> items;
  items.reserve(trace.size());
  for (const auto& p : trace) {
    items.push_back(service::ScanItem{chain, p.tuple, BytesView(p.payload)});
  }
  return items;
}

struct RunResult {
  double pps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Replays `items` through a fresh instance `repeats` times in batches of
/// kBatch, timing each scan_batch() submit-to-complete round trip. Batch
/// latencies go through an obs::Histogram — the same percentile machinery
/// the telemetry channel exports — instead of a private sort-and-index.
RunResult run_config(const std::shared_ptr<const dpi::Engine>& engine,
                     const std::vector<service::ScanItem>& items,
                     std::size_t workers, int repeats) {
  service::InstanceConfig config;
  config.num_workers = workers;
  config.max_flows = 4096;
  service::DpiInstance inst("bench", config);
  inst.load_engine(engine, 1);

  constexpr std::size_t kBatch = 256;
  obs::Histogram batch_ns(obs::Histogram::latency_bounds_ns());
  std::uint64_t packets = 0;
  Stopwatch total;
  for (int rep = 0; rep < repeats; ++rep) {
    for (std::size_t base = 0; base < items.size(); base += kBatch) {
      const std::size_t end = std::min(base + kBatch, items.size());
      const std::vector<service::ScanItem> batch(items.begin() + base,
                                                 items.begin() + end);
      Stopwatch w;
      const auto results = inst.scan_batch(batch);
      batch_ns.record(w.elapsed_ns());
      packets += results.size();
    }
  }
  const double seconds = total.elapsed_seconds();
  RunResult r;
  r.pps = static_cast<double>(packets) / seconds;
  r.p50_us = batch_ns.percentile(0.50) / 1e3;
  r.p99_us = batch_ns.percentile(0.99) / 1e3;
  return r;
}

}  // namespace
}  // namespace dpisvc::bench

int main(int argc, char** argv) {
  using namespace dpisvc;
  using namespace dpisvc::bench;

  const std::size_t num_packets =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 20000;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 3;
  const unsigned hw_threads = std::thread::hardware_concurrency();

  print_header("sharded scan pool: throughput vs. worker count");
  std::printf("trace: %zu packets x%d repeats, hardware threads: %u\n",
              num_packets, repeats, hw_threads);

  const auto engine = mt_engine(300);
  const ac::KernelPolicy& policy = ac::kernel_policy();
  std::printf("kernel dispatch: %s%s\n", policy.reason,
              engine->kernel_active() ? "" : " (kernel inactive)");

  workload::TrafficConfig traffic;
  traffic.num_packets = num_packets;
  traffic.num_flows = 64;
  traffic.planted_match_rate = 0.05;
  traffic.planted_patterns =
      workload::generate_patterns(workload::snort_like(8, 17));
  const auto trace = workload::generate_http_trace(traffic);

  const std::vector<std::size_t> worker_counts = {1, 2, 4, 8};
  json::Array series;
  std::map<std::string, double> pps_at_workers;  // stateless runs

  for (const char* kind : {"stateless", "stateful"}) {
    const dpi::ChainId chain = std::string(kind) == "stateless" ? 1 : 2;
    const auto items = items_for(trace, chain);

    std::printf("\n%-10s %8s %12s %12s %12s\n", kind, "workers", "pps",
                "p50_us", "p99_us");
    for (const std::size_t workers : worker_counts) {
      const RunResult r = run_config(engine, items, workers, repeats);
      std::printf("%-10s %8zu %12.0f %12.1f %12.1f\n", "", workers, r.pps,
                  r.p50_us, r.p99_us);
      series.push_back(json::Value(json::obj({
          {"chain", kind},
          {"workers", static_cast<double>(workers)},
          {"pps", r.pps},
          {"p50_us", r.p50_us},
          {"p99_us", r.p99_us},
      })));
      if (chain == 1) pps_at_workers[std::to_string(workers)] = r.pps;
    }
  }

  // Worker-scaling speedup at min(4, hardware threads) workers. Dividing
  // the 4-worker pps by the 1-worker pps on a 1-CPU container only measures
  // scheduler overhead, so the divisor is clamped and the clamp is reported
  // as effective_workers.
  const std::size_t effective_workers =
      std::min<std::size_t>(4, std::max(1u, hw_threads));
  const double pps_1w = pps_at_workers["1"];
  const double pps_eff = pps_at_workers[std::to_string(effective_workers)];
  const double speedup_4w = pps_1w > 0.0 ? pps_eff / pps_1w : 0.0;
  std::printf("\nstateless %zu-worker speedup over 1 worker: %.2fx\n",
              effective_workers, speedup_4w);

  json::Object out = json::obj({
      {"bench", "scan_mt"},
      {"num_packets", static_cast<double>(num_packets)},
      {"repeats", static_cast<double>(repeats)},
      {"num_flows", static_cast<double>(traffic.num_flows)},
      {"hardware_threads", static_cast<double>(hw_threads)},
      {"kernel_dispatch", std::string(policy.reason)},
      {"kernel_active", engine->kernel_active()},
      {"effective_workers", static_cast<double>(effective_workers)},
      {"speedup_stateless_4w", speedup_4w},
  });
  out["series"] = json::Value(std::move(series));
  std::ofstream("BENCH_scan_mt.json") << json::dump(json::Value(out)) << "\n";
  std::printf("wrote BENCH_scan_mt.json\n");
  return 0;
}
