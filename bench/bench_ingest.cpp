// Zero-copy batched ingest pipeline: packets/sec and push-latency
// percentiles vs. ring capacity and batch size, plus the batched-vs-
// per-packet comparison the DESIGN.md §4h refactor is justified by.
//
// The workload is a large-flow-count HTTP trace (default 100k+ concurrent
// flows — enough that per-flow state actually contends the flow tables and
// the counting-sort partition sees a realistic shard spread). Each
// configuration replays the trace through an IngestPipeline over a sharded
// DpiInstance with bounded per-shard rings; the per-packet baseline pushes
// the same packets through DpiInstance::scan() one at a time, which is the
// path the pipeline replaces.
//
// NOTE on scaling expectations: the emitted JSON carries
// `hardware_threads` and `effective_workers`, but the threads a machine
// reports are not the cores it delivers; perfbench measures those
// (`service.cores_used`, `service.parallel_capacity`).
//
// Usage: bench_ingest [num_packets] [repeats]
//   num_packets  trace size (default 300000; CI smoke passes e.g. 2000)
//   repeats      trace replays per configuration (default 2)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "service/ingest.hpp"
#include "service/instance.hpp"

namespace dpisvc::bench {
namespace {

std::shared_ptr<const dpi::Engine> ingest_engine(std::size_t num_patterns) {
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
  spec.chains[1] = {1};     // stateless
  spec.chains[2] = {1, 2};  // stateful: per-flow cursors on every packet
  return dpi::Engine::compile(spec);
}

service::InstanceConfig instance_config(std::size_t workers,
                                        std::size_t queue_capacity,
                                        std::size_t num_flows) {
  service::InstanceConfig config;
  config.num_workers = workers;
  config.queue_capacity = queue_capacity;
  config.overload = service::OverloadPolicy::kBlock;
  // Room for every concurrent flow's cursor: evictions would silently turn
  // the stateful chain into a partially stateless one and skew the numbers.
  config.max_flows = std::max<std::size_t>(4096, 2 * num_flows);
  return config;
}

struct RunResult {
  double pps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t blocked = 0;  ///< backpressure stalls during the run
};

/// Replays the trace through an IngestPipeline; each push() is timed (the
/// push is where backpressure surfaces, so its p99 is the latency cost of a
/// small ring).
RunResult run_pipeline(const std::shared_ptr<const dpi::Engine>& engine,
                       const workload::Trace& trace, dpi::ChainId chain,
                       std::size_t workers, std::size_t queue_capacity,
                       std::size_t batch_packets, int repeats) {
  service::DpiInstance inst(
      "bench", instance_config(workers, queue_capacity, trace.size()));
  inst.load_engine(engine, 1);

  service::IngestConfig ingest;
  ingest.batch_packets = batch_packets;
  ingest.max_batches = 8;
  std::uint64_t delivered = 0;
  service::IngestPipeline pipeline(
      inst,
      [&](const service::BatchHandle& batch) { delivered += batch.size(); },
      ingest);

  obs::Histogram push_ns(obs::Histogram::latency_bounds_ns());
  Stopwatch total;
  for (int rep = 0; rep < repeats; ++rep) {
    for (const auto& p : trace) {
      Stopwatch w;
      pipeline.push(chain, p.tuple, BytesView(p.payload));
      push_ns.record(w.elapsed_ns());
    }
    pipeline.drain();
  }
  const double seconds = total.elapsed_seconds();

  RunResult r;
  r.pps = static_cast<double>(delivered) / seconds;
  r.p50_us = push_ns.percentile(0.50) / 1e3;
  r.p99_us = push_ns.percentile(0.99) / 1e3;
  const obs::Counter* blocked = inst.ingest_instruments().blocked;
  r.blocked = blocked == nullptr ? 0 : blocked->value();
  return r;
}

/// The path the pipeline replaces: one scan() call per packet — per-packet
/// shard-lock round trip, no batching, payload handed around by value.
RunResult run_per_packet(const std::shared_ptr<const dpi::Engine>& engine,
                         const workload::Trace& trace, dpi::ChainId chain,
                         std::size_t workers, int repeats) {
  service::DpiInstance inst("bench",
                            instance_config(workers, 1024, trace.size()));
  inst.load_engine(engine, 1);
  std::uint64_t packets = 0;
  Stopwatch total;
  for (int rep = 0; rep < repeats; ++rep) {
    for (const auto& p : trace) {
      inst.scan(chain, p.tuple, BytesView(p.payload));
      ++packets;
    }
  }
  RunResult r;
  r.pps = static_cast<double>(packets) / total.elapsed_seconds();
  return r;
}

}  // namespace
}  // namespace dpisvc::bench

int main(int argc, char** argv) {
  using namespace dpisvc;
  using namespace dpisvc::bench;

  const std::size_t num_packets =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 300000;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 2;
  const unsigned hw_threads = std::thread::hardware_concurrency();
  // "100k+ concurrent flows" needs a trace at least that long; smoke runs
  // scale the flow count down with the trace rather than having one packet
  // per flow mean anything.
  const std::size_t num_flows =
      std::min<std::size_t>(100000, std::max<std::size_t>(1, num_packets / 2));
  const std::size_t effective_workers =
      std::min<std::size_t>(4, std::max(1u, hw_threads));

  print_header("zero-copy batched ingest: pps vs ring capacity / batch size");
  std::printf(
      "trace: %zu packets x%d repeats, %zu flows, hardware threads: %u, "
      "workers: %zu\n",
      num_packets, repeats, num_flows, hw_threads, effective_workers);

  const auto engine = ingest_engine(300);
  workload::TrafficConfig traffic;
  traffic.num_packets = num_packets;
  traffic.num_flows = num_flows;
  traffic.planted_match_rate = 0.05;
  traffic.planted_patterns =
      workload::generate_patterns(workload::snort_like(8, 17));
  const auto trace = workload::generate_http_trace(traffic);

  json::Object out = json::obj({
      {"bench", "ingest"},
      {"num_packets", static_cast<double>(num_packets)},
      {"repeats", static_cast<double>(repeats)},
      {"num_flows", static_cast<double>(num_flows)},
      {"hardware_threads", static_cast<double>(hw_threads)},
      {"effective_workers", static_cast<double>(effective_workers)},
  });

  // Batched vs the current per-packet path, both chain kinds, same workers.
  for (const char* kind : {"stateless", "stateful"}) {
    const dpi::ChainId chain = std::string(kind) == "stateless" ? 1 : 2;
    const RunResult per_packet =
        run_per_packet(engine, trace, chain, effective_workers, repeats);
    const RunResult batched = run_pipeline(engine, trace, chain,
                                           effective_workers, 1024, 64,
                                           repeats);
    const double speedup =
        per_packet.pps > 0.0 ? batched.pps / per_packet.pps : 0.0;
    std::printf(
        "\n%-10s per-packet %12.0f pps, batched ingest %12.0f pps (%.2fx)\n",
        kind, per_packet.pps, batched.pps, speedup);
    out[std::string("pps_per_packet_") + kind] = per_packet.pps;
    out[std::string("pps_batched_") + kind] = batched.pps;
    out[std::string("batched_speedup_") + kind] = speedup;
  }

  // The sweep: ring capacity x batch size on the stateful chain (the
  // configuration with flow-table traffic, i.e. the one overload actually
  // stresses). Small rings trade p99 push latency for a tighter bound.
  std::printf("\n%10s %8s %12s %10s %10s %10s\n", "capacity", "batch", "pps",
              "p50_us", "p99_us", "blocked");
  json::Array series;
  for (const std::size_t capacity : {64u, 256u, 1024u}) {
    for (const std::size_t batch : {16u, 64u, 256u}) {
      const RunResult r = run_pipeline(engine, trace, 2, effective_workers,
                                       capacity, batch, repeats);
      std::printf("%10zu %8zu %12.0f %10.2f %10.2f %10llu\n", capacity, batch,
                  r.pps, r.p50_us, r.p99_us,
                  static_cast<unsigned long long>(r.blocked));
      series.push_back(json::Value(json::obj({
          {"queue_capacity", static_cast<double>(capacity)},
          {"batch_packets", static_cast<double>(batch)},
          {"pps", r.pps},
          {"p50_us", r.p50_us},
          {"p99_us", r.p99_us},
          {"blocked", static_cast<double>(r.blocked)},
      })));
    }
  }
  out["series"] = json::Value(std::move(series));

  std::ofstream("BENCH_ingest.json") << json::dump(json::Value(out)) << "\n";
  std::printf("wrote BENCH_ingest.json\n");
  return 0;
}
