// Multi-threaded stress test for the service data/control-plane split,
// written to run under ThreadSanitizer (-DDPISVC_TSAN=ON).
//
// Thread model being validated (§2.2, §4.3): DpiInstance is the only object
// shared across threads — scanner threads hammer instances directly and
// through the netsim fabric while ONE control-plane thread drives the
// DpiController (pattern registration → engine recompile + hot push, MCA²
// telemetry collection, heartbeat loss → failover with live flow-state
// migration, recovery re-sync). The controller and fabric are documented
// single-threaded; the instances' internal mutex is what makes concurrent
// scan vs. engine swap vs. telemetry sampling race-free, and that is
// exactly what TSan checks here.
//
// The test also runs (slowly) in normal builds, so plain CI exercises the
// same interleavings without the data-race detection.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "netsim/fabric.hpp"
#include "netsim/host.hpp"
#include "service/controller.hpp"
#include "service/instance_node.hpp"
#include "workload/pattern_gen.hpp"
#include "workload/traffic_gen.hpp"

namespace dpisvc {
namespace {

using namespace dpisvc::netsim;
using namespace dpisvc::service;

json::Value register_msg(int id, const char* name, bool stateful) {
  return json::parse(R"({"type":"register","middlebox_id":)" +
                     std::to_string(id) + R"(,"name":")" + name +
                     R"(","stateful":)" + (stateful ? "true" : "false") + "}");
}

json::Value add_exact_msg(int id, int rule, const std::string& text) {
  AddPatternsRequest req;
  req.middlebox = static_cast<dpi::MiddleboxId>(id);
  req.exact.push_back(ExactPatternMsg{static_cast<dpi::PatternId>(rule), text});
  return encode(req);
}

TEST(TsanStress, ConcurrentScanRegisterAndFailover) {
  FailoverConfig failover;
  failover.miss_windows = 2;
  DpiController controller({}, failover);
  controller.handle_message(register_msg(1, "ids", false));
  controller.handle_message(register_msg(2, "session-fw", true));
  controller.handle_message(register_msg(3, "av", false));

  const auto patterns =
      workload::generate_patterns(workload::snort_like(200, 29));
  dpi::PatternId rule = 0;
  for (const auto& pattern : patterns) {
    controller.handle_message(add_exact_msg(
        static_cast<int>(1 + rule % 3), static_cast<int>(rule), pattern));
    ++rule;
  }
  const dpi::ChainId chain1 = controller.register_policy_chain({1, 2, 3});
  const dpi::ChainId chain2 = controller.register_policy_chain({2});

  auto i1 = controller.create_instance("dpi1");
  auto i2 = controller.create_instance("dpi2");
  auto i3 = controller.create_instance("dpi3");
  controller.assign_chain(chain1, "dpi1");
  controller.assign_chain(chain2, "dpi3");
  ASSERT_TRUE(i1->has_engine());

  // The fabric is owned and ticked by the control-plane thread only; the
  // InstanceNode wraps the SAME i1 the scanner threads use directly, so
  // fabric traffic and direct scans contend on the instance mutex.
  Fabric fabric;
  fabric.add_node<Host>("gw");
  fabric.add_node<InstanceNode>("dpi1", i1);
  fabric.connect("gw", "dpi1");

  workload::TrafficConfig traffic;
  traffic.num_packets = 150;
  traffic.planted_match_rate = 0.3;
  traffic.planted_patterns.assign(patterns.begin(), patterns.begin() + 12);
  const auto trace = workload::generate_http_trace(traffic);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scans{0};
  std::atomic<std::uint64_t> raw_hits{0};

  const std::vector<std::shared_ptr<DpiInstance>> instances = {i1, i2, i3};
  std::vector<std::thread> threads;

  // Scanner threads: the stateful chain exercises the flow table (lookup +
  // cursor update) under the instance lock, racing the control thread's
  // engine pushes (which clear it) and failover flow export.
  constexpr int kScanners = 4;
  for (int t = 0; t < kScanners; ++t) {
    threads.emplace_back([&, t] {
      DpiInstance& inst = *instances[static_cast<std::size_t>(t) % 3];
      const dpi::ChainId chain = t % 2 == 0 ? chain1 : chain2;
      std::uint64_t local_scans = 0;
      std::uint64_t local_hits = 0;
      while (!stop.load(std::memory_order_acquire)) {
        for (const auto& p : trace) {
          local_hits += inst.scan(chain, p.tuple, p.payload).raw_hits;
          ++local_scans;
        }
        net::Packet tagged;
        tagged.tuple = trace.front().tuple;
        tagged.payload = trace.front().payload;
        tagged.push_tag(net::TagKind::kPolicyChain, chain);
        (void)inst.process(std::move(tagged));
      }
      scans += local_scans;
      raw_hits += local_hits;
    });
  }

  // Sampler thread: the controller's monitor view — concurrent telemetry
  // snapshots must never tear against running scans.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& inst : instances) {
        (void)inst->telemetry();
        (void)inst->chain_telemetry();
        (void)inst->active_flows();
        (void)inst->active_flow_keys();
        (void)inst->engine_version();
      }
      std::this_thread::yield();
    }
  });

  // Control-plane rounds, all from this thread.
  constexpr int kRounds = 12;
  for (int round = 0; round < kRounds; ++round) {
    // New pattern → full recompile → hot engine push into live scanners.
    controller.handle_message(
        add_exact_msg(1, 5000 + round, "hot-update-" + std::to_string(round)));

    // Drive tagged traffic through the fabric into the shared instance.
    for (int i = 0; i < 8; ++i) {
      net::Packet p;
      p.tuple = trace[static_cast<std::size_t>(i)].tuple;
      p.payload = trace[static_cast<std::size_t>(i)].payload;
      p.ip_id = static_cast<std::uint16_t>(round * 16 + i);
      p.push_tag(net::TagKind::kPolicyChain, chain1);
      fabric.send("gw", "dpi1", std::move(p));
    }
    fabric.run();

    controller.heartbeat("dpi1");
    controller.heartbeat("dpi2");
    if (round < 4 || round > 8) controller.heartbeat("dpi3");
    controller.collect_telemetry();

    if (controller.is_failed("dpi3")) {
      // dpi3 missed its windows mid-run: reassign its chain and migrate
      // surviving flow state while scanners still hammer all instances.
      const FailoverPlan plan = controller.evaluate_failover();
      (void)controller.apply_failover(plan);
      controller.recover_instance("dpi3");
    }
    std::this_thread::yield();
  }

  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();

  EXPECT_GT(scans.load(), 0u);
  EXPECT_GT(raw_hits.load(), 0u);
  EXPECT_FALSE(controller.is_failed("dpi3"));
  // The last control round pushed to every live instance, so all three end
  // on one engine version.
  EXPECT_EQ(i1->engine_version(), i2->engine_version());
  EXPECT_EQ(i2->engine_version(), i3->engine_version());
  const std::uint64_t total =
      i1->telemetry().packets + i2->telemetry().packets +
      i3->telemetry().packets + i1->telemetry().pass_through;
  EXPECT_GE(total, scans.load());
}

// Sharded-pool stress: batch submitters drive all shards of a multi-worker
// instance while the main thread hot-swaps engines (shard-by-shard) and
// migrates flow state out and back in bulk. Validates that shard mutexes,
// the control-plane lock, and the scan pool's dispatch/completion protocol
// compose race-free.
TEST(TsanStress, ShardedPoolScanVsSwapVsMigration) {
  auto compile_engine = [](std::size_t num_patterns, std::uint64_t seed) {
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
         workload::generate_patterns(workload::snort_like(num_patterns, seed))) {
      spec.exact_patterns.push_back(dpi::ExactPatternSpec{
          pattern, static_cast<dpi::MiddleboxId>(1 + rule % 2), rule});
      ++rule;
    }
    spec.chains[1] = {1, 2};  // stateful chain: flow tables are hot
    return dpi::Engine::compile(spec);
  };
  const auto engine_a = compile_engine(100, 7);
  const auto engine_b = compile_engine(150, 11);

  InstanceConfig config;
  config.num_workers = 4;
  config.max_flows = 256;
  DpiInstance inst("sharded", config);
  DpiInstance peer("peer", config);
  inst.load_engine(engine_a, 1);
  peer.load_engine(engine_a, 1);

  workload::TrafficConfig traffic;
  traffic.num_packets = 200;
  const auto trace = workload::generate_http_trace(traffic);
  std::vector<ScanItem> items;
  items.reserve(trace.size());
  for (const auto& p : trace) {
    items.push_back(ScanItem{1, p.tuple, BytesView(p.payload)});
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> packets{0};
  std::vector<std::thread> threads;

  // Two batch submitters + one per-packet scanner: every shard stays busy.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        packets += inst.scan_batch(items).size();
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& p : trace) {
        (void)inst.scan(1, p.tuple, p.payload);
      }
      packets += trace.size();
    }
  });

  // Telemetry sampler: aggregates across shards while they scan.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)inst.telemetry();
      (void)inst.active_flows();
      (void)inst.active_flow_keys();
      std::this_thread::yield();
    }
  });

  // Let the scanners finish a first pass, so the swaps below race running
  // scans: on a loaded host the 15 rounds could otherwise end before any
  // scanner thread was scheduled.
  while (packets.load() == 0) std::this_thread::yield();

  // Control plane (this thread): hot engine swaps and bulk flow migration
  // race the scanners above.
  for (int round = 0; round < 15; ++round) {
    const auto& engine = round % 2 == 0 ? engine_b : engine_a;
    inst.load_engine(engine, static_cast<std::uint64_t>(round + 2));
    peer.load_engine(engine, static_cast<std::uint64_t>(round + 2));
    // Drain the instance's shards into the peer and re-home the state.
    peer.import_flows(inst.export_all_flows());
    inst.import_flows(peer.export_all_flows());
    std::this_thread::yield();
  }

  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();

  EXPECT_GT(packets.load(), 0u);
  EXPECT_EQ(inst.telemetry().packets, packets.load());
  EXPECT_EQ(inst.engine_version(), peer.engine_version());
}


// Registry-backed telemetry under concurrent scans: scanner threads run
// while a sampler thread loops over telemetry() and chain_telemetry(). The
// shard<i>.* counters are the only book, written once per stage window and
// read lock-free, so every sample must be non-decreasing field by field, and
// the final totals must equal what was scanned — and the per-shard counters
// they are summed from.
TEST(TsanStress, TelemetrySamplesMonotonicUnderConcurrentScans) {
  dpi::EngineSpec spec;
  spec.middleboxes = {dpi::MiddleboxProfile{1, "ids"}};
  spec.exact_patterns = {dpi::ExactPatternSpec{"attack", 1, 0}};
  spec.chains[1] = {1};
  auto engine = dpi::Engine::compile(spec);

  InstanceConfig config;
  config.num_workers = 2;
  DpiInstance inst("stress", config);
  inst.load_engine(engine, 1);

  workload::TrafficConfig traffic;
  traffic.num_packets = 400;
  traffic.num_flows = 16;
  traffic.planted_patterns = {"attack"};
  const workload::Trace trace = workload::generate_http_trace(traffic);

  constexpr int kScanners = 3;
  constexpr int kRepeats = 8;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> samples{0};
  std::atomic<bool> decreased{false};

  std::thread sampler([&] {
    InstanceTelemetry last;
    ChainTelemetry last_chain;
    while (!done.load(std::memory_order_acquire)) {
      const InstanceTelemetry t = inst.telemetry();
      const std::map<dpi::ChainId, ChainTelemetry> chains =
          inst.chain_telemetry();
      const ChainTelemetry c =
          chains.count(1) != 0 ? chains.at(1) : ChainTelemetry{};
      if (t.packets < last.packets || t.bytes < last.bytes ||
          t.raw_hits < last.raw_hits || t.match_packets < last.match_packets ||
          t.busy_seconds < last.busy_seconds ||
          c.packets < last_chain.packets || c.bytes < last_chain.bytes ||
          c.raw_hits < last_chain.raw_hits) {
        decreased.store(true, std::memory_order_relaxed);
      }
      last = t;
      last_chain = c;
      samples.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> scanners;
  scanners.reserve(kScanners);
  for (int s = 0; s < kScanners; ++s) {
    scanners.emplace_back([&, s] {
      for (int rep = 0; rep < kRepeats; ++rep) {
        if ((s + rep) % 2 == 0) {
          for (const auto& p : trace) (void)inst.scan(1, p.tuple, p.payload);
          continue;
        }
        std::vector<ScanItem> items;
        for (const auto& p : trace) items.push_back({1, p.tuple, p.payload});
        (void)inst.scan_batch(items);
      }
    });
  }
  for (auto& t : scanners) t.join();
  done.store(true, std::memory_order_release);
  sampler.join();

  EXPECT_GT(samples.load(), 0u);
  EXPECT_FALSE(decreased.load()) << "a telemetry sample went backwards";
  const std::uint64_t expected_packets =
      static_cast<std::uint64_t>(kScanners) * kRepeats * trace.size();
  std::uint64_t expected_bytes = 0;
  for (const auto& p : trace) expected_bytes += p.payload.size();
  expected_bytes *= static_cast<std::uint64_t>(kScanners) * kRepeats;

  const InstanceTelemetry total = inst.telemetry();
  EXPECT_EQ(total.packets, expected_packets);
  EXPECT_EQ(total.bytes, expected_bytes);
  EXPECT_EQ(inst.chain_telemetry().at(1).packets, expected_packets);
  std::uint64_t shard_packets = 0;
  const json::Value snap = inst.metrics().snapshot();
  for (std::size_t i = 0; i < inst.num_shards(); ++i) {
    shard_packets += static_cast<std::uint64_t>(
        snap.at("counters")
            .at("shard" + std::to_string(i) + ".packets")
            .as_number());
  }
  EXPECT_EQ(shard_packets, expected_packets);
}

}  // namespace
}  // namespace dpisvc
