// Ablations of the design choices DESIGN.md calls out.
//
//  A. Matching-engine choice (§4.3.1): the regular engine (failure-link
//     AC with the hot kernel caching its core) vs the dedicated one (the
//     failure-link AC alone), on benign and adversarial traffic.
//  B. The §5.1 accepting-state bitmap: scan cost with and without the
//     bitmap short-circuit, on traffic whose matches belong to *inactive*
//     middleboxes (the case the bitmap optimizes).
//  C. Decompress-once (§1): one shared inflate + combined scan vs each of N
//     middleboxes inflating and scanning on its own.
#include "bench_util.hpp"
#include "compress/deflate.hpp"
#include "compress/inflate.hpp"

using namespace dpisvc;
using namespace dpisvc::bench;

namespace {

void engines_ablation() {
  std::printf("\n--- A. matching engine choice ---\n");
  const auto patterns = workload::generate_patterns(workload::snort_like(4356));
  auto regular = engine_for(patterns);
  dpi::EngineConfig dedicated_config;
  dedicated_config.hot_kernel = false;
  auto dedicated = engine_for(patterns, dedicated_config);

  const auto benign = benign_trace(patterns, 1500);
  workload::TrafficConfig attack_config;
  attack_config.num_packets = 1500;
  const std::vector<std::string> targets(patterns.begin(),
                                         patterns.begin() + 32);
  const auto attack = workload::generate_attack_trace(attack_config, targets);

  const std::uint64_t kBytes = 24ull << 20;
  std::printf("%-24s %14s %14s %14s\n", "engine", "benign[Mbps]",
              "attack[Mbps]", "resident[MB]");
  std::printf("%-24s %14.0f %14.0f %14.2f\n", "regular (hot kernel)",
              measure_scan_mbps(*regular, 1, benign, kBytes),
              measure_scan_mbps(*regular, 1, attack, kBytes),
              resident_mb(*regular));
  std::printf("%-24s %14.0f %14.0f %14.2f\n", "dedicated (no kernel)",
              measure_scan_mbps(*dedicated, 1, benign, kBytes),
              measure_scan_mbps(*dedicated, 1, attack, kBytes),
              resident_mb(*dedicated));
}

dpi::EngineSpec bitmap_spec(const std::vector<std::string>& set1,
                            const std::vector<std::string>& set2) {
  // Middlebox 2 registers every pattern under 12 rule ids, so each of its
  // accepting states carries a long match-table row — the §5.1 case where
  // skipping the row via one bitmap AND matters most.
  dpi::EngineSpec spec;
  dpi::MiddleboxProfile a;
  a.id = 1;
  a.name = "active";
  dpi::MiddleboxProfile b;
  b.id = 2;
  b.name = "inactive";
  spec.middleboxes = {a, b};
  dpi::PatternId id = 0;
  for (const std::string& p : set1) {
    spec.exact_patterns.push_back(dpi::ExactPatternSpec{p, 1, id++});
  }
  id = 0;
  for (const std::string& p : set2) {
    for (int copy = 0; copy < 12; ++copy) {
      spec.exact_patterns.push_back(dpi::ExactPatternSpec{p, 2, id++});
    }
  }
  spec.chains[2] = {1};  // the scanned chain activates middlebox 1 only
  return spec;
}

void bitmap_ablation() {
  std::printf("\n--- B. accepting-state bitmap short-circuit (§5.1) ---\n");
  // The traffic is saturated with middlebox 2's patterns, but the scanned
  // chain activates only middlebox 1 — every accepting hit is irrelevant
  // and the bitmap skips its (long) match-table row.
  const auto all = workload::generate_patterns(workload::snort_like(4000));
  const std::vector<std::string> set1(all.begin(), all.begin() + 2000);
  const std::vector<std::string> set2(all.begin() + 2000, all.end());

  const dpi::EngineSpec spec = bitmap_spec(set1, set2);
  dpi::EngineConfig with;
  dpi::EngineConfig without;
  without.use_accept_bitmaps = false;
  auto engine_with = dpi::Engine::compile(spec, with);
  auto engine_without = dpi::Engine::compile(spec, without);

  workload::TrafficConfig config;
  config.num_packets = 1500;
  const std::vector<std::string> targets(set2.begin(), set2.begin() + 32);
  const auto trace = workload::generate_attack_trace(config, targets);

  const std::uint64_t kBytes = 24ull << 20;
  // Chain 2 activates middlebox 1 only; all matches belong to middlebox 2.
  const double mbps_with = measure_scan_mbps(*engine_with, 2, trace, kBytes);
  const double mbps_without =
      measure_scan_mbps(*engine_without, 2, trace, kBytes);
  std::printf("%-34s %10.0f Mbps\n", "bitmap enabled", mbps_with);
  std::printf("%-34s %10.0f Mbps\n", "bitmap disabled", mbps_without);
  std::printf("bitmap short-circuit speedup on irrelevant-match traffic: "
              "%.2fx\n", mbps_with / mbps_without);
}

void decompression_ablation() {
  std::printf("\n--- C. decompress once vs per-middlebox (§1) ---\n");
  const auto patterns = workload::generate_patterns(workload::snort_like(2000));
  const auto split = workload::split_random(patterns, 4, 5);

  // Compressed HTTP bodies.
  workload::TrafficConfig config;
  config.num_packets = 400;
  config.min_payload = 2048;
  config.max_payload = 8192;
  config.seed = 77;
  const auto plain = workload::generate_http_trace(config);
  std::vector<Bytes> compressed;
  std::uint64_t plain_bytes = 0;
  for (const auto& p : plain) {
    compressed.push_back(compress::gzip_compress(p.payload));
    plain_bytes += p.payload.size();
  }

  auto combined = engine_for(patterns);
  std::vector<std::shared_ptr<const dpi::Engine>> separate;
  for (const auto& part : split) {
    separate.push_back(engine_for(part));
  }

  const int kRounds = 6;
  // DPI service: inflate once, scan the combined set once.
  Stopwatch service_watch;
  for (int r = 0; r < kRounds; ++r) {
    for (const Bytes& body : compressed) {
      const Bytes inflated = compress::gzip_decompress(body);
      (void)combined->scan_packet(1, inflated);
    }
  }
  const double service_seconds = service_watch.elapsed_seconds();

  for (std::size_t n : {2u, 4u}) {
    // Baseline: each of n middleboxes inflates and scans independently.
    Stopwatch baseline_watch;
    for (int r = 0; r < kRounds; ++r) {
      for (const Bytes& body : compressed) {
        for (std::size_t i = 0; i < n; ++i) {
          const Bytes inflated = compress::gzip_decompress(body);
          (void)separate[i]->scan_packet(1, inflated);
        }
      }
    }
    const double baseline_seconds = baseline_watch.elapsed_seconds();
    std::printf("%zu middleboxes: per-box inflate+scan %7.0f Mbps | "
                "service %7.0f Mbps | speedup %.2fx\n",
                n,
                to_mbps(plain_bytes * kRounds, baseline_seconds),
                to_mbps(plain_bytes * kRounds, service_seconds),
                baseline_seconds / service_seconds);
  }
  std::printf("(the paper: decompression 'executed only once for each "
              "packet')\n");
}

}  // namespace

int main() {
  print_header("Ablations: engine choice, §5.1 bitmap, decompress-once");
  engines_ablation();
  bitmap_ablation();
  decompression_ablation();
  return 0;
}
