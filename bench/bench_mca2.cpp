// §4.3.1 / Figure 6: MCA² under complexity attack — ablation of the
// dedicated-instance design.
//
// Both engines hold the same failure-link automaton. The regular engine adds
// the hot kernel, a u16 cache of the automaton's near-root core; the
// dedicated engine walks the automaton alone and keeps its small footprint.
//
// Two rule sets, each in four rows (regular / dedicated engine x benign /
// attack traffic):
//   A. Snort-like (4,356 patterns): the Figure 6 setup. Its automaton fits
//      the hot core whole, so the attack stays inside the kernel.
//   B. Snort-like + ClamAV-like (the perfbench service's mix): more states
//      than the core holds. An attack stitched from the deepest signatures
//      drives the walk out of the core, onto the automaton's steps and back
//      — the regular engine's worst case.
// Then the system view: benign throughput on the regular instance while the
// attack is diverted vs while it shares the instance.
//
// Shape targets: the attack depresses the regular engine's attack row well
// below its benign row (dense match handling, walks leaving the core); the
// dedicated engine is slower on benign traffic but far smaller; diverting
// the attack restores benign capacity. The paper's answer to the worst case
// is MCA², not a larger table.
#include "bench_util.hpp"

using namespace dpisvc;
using namespace dpisvc::bench;

namespace {

struct Rates {
  double benign = 0;
  double attack = 0;
};

/// Percent of the trace's bytes the regular engine walks with the
/// automaton's step() instead of the kernel: every byte read in a cold
/// state, and every cold exit. Chain 1 is stateless, so each packet starts
/// at the root.
double cold_pct(const dpi::Engine& engine, const workload::Trace& trace) {
  const ac::CompressedAutomaton& automaton = engine.automaton();
  const ac::HotKernel& kernel = *engine.hot_kernel();
  std::uint64_t cold = 0;
  for (const workload::TracePacket& p : trace) {
    ac::StateIndex state = automaton.start_state();
    for (const std::uint8_t byte : p.payload) {
      const ac::StateIndex next = automaton.step(state, byte);
      cold += kernel.is_hot(state) && kernel.is_hot(next) ? 0 : 1;
      state = next;
    }
  }
  return 100.0 * static_cast<double>(cold) /
         static_cast<double>(workload::total_payload_bytes(trace));
}

/// Prints the four rows of one rule set and returns the regular engine's.
Rates report(const char* set, const dpi::EngineSpec& spec,
             const std::vector<std::string>& planted,
             const std::vector<std::string>& targets) {
  const auto benign = benign_trace(planted, 2000);
  workload::TrafficConfig attack_config;
  attack_config.num_packets = 2000;
  const auto attack = workload::generate_attack_trace(attack_config, targets);
  dpi::EngineConfig dedicated_config;
  dedicated_config.hot_kernel = false;
  const auto regular = dpi::Engine::compile(spec);
  const auto dedicated = dpi::Engine::compile(spec, dedicated_config);

  const std::uint64_t kBytes = 32ull << 20;
  Rates rates;
  rates.benign = measure_scan_mbps(*regular, 1, benign, kBytes);
  rates.attack = measure_scan_mbps(*regular, 1, attack, kBytes);
  std::printf("\n%s: %u states, hot core %s\n", set,
              regular->num_automaton_states(),
              regular->hot_kernel()->complete() ? "complete"
                                                : "cut at a depth");
  std::printf("%-42s %10s %14s\n", "engine / traffic", "Mbps",
              "resident[MB]");
  std::printf("%-42s %10.0f %14.2f\n", "regular (hot kernel), benign",
              rates.benign, resident_mb(*regular));
  std::printf("%-42s %10.0f %14.2f\n", "regular (hot kernel), attack",
              rates.attack, resident_mb(*regular));
  std::printf("%-42s %10.0f %14.2f\n", "dedicated (no kernel), benign",
              measure_scan_mbps(*dedicated, 1, benign, kBytes),
              resident_mb(*dedicated));
  std::printf("%-42s %10.0f %14.2f\n", "dedicated (no kernel), attack",
              measure_scan_mbps(*dedicated, 1, attack, kBytes),
              resident_mb(*dedicated));
  std::printf("attack degrades the regular engine by %.1fx; the dedicated "
              "engine is %.0fx smaller\n", rates.benign / rates.attack,
              resident_mb(*regular) / resident_mb(*dedicated));
  std::printf("bytes the regular engine walks outside the kernel: %.3f%% "
              "benign, %.3f%% attack\n", cold_pct(*regular, benign),
              cold_pct(*regular, attack));
  return rates;
}

}  // namespace

int main() {
  print_header("MCA2 ablation: regular (hot kernel) vs dedicated (no kernel) "
               "engines under attack");

  const auto snort = workload::generate_patterns(workload::snort_like(4356));
  const auto clamav = workload::generate_patterns(workload::clamav_like(2000));
  const Rates fig6 = report("A. Snort-like", spec_for(snort), snort,
                            {snort.begin(), snort.begin() + 32});
  std::vector<std::string> deepest(clamav.end() - 32, clamav.end());
  deepest.insert(deepest.end(), snort.end() - 32, snort.end());
  report("B. Snort-like + ClamAV-like [regular engine's worst case]",
         combined_spec_for(snort, clamav), snort, deepest);

  // System view: benign throughput while sharing with the attack vs after
  // the attack is diverted to a dedicated instance (one core: shared time).
  const double mixed_benign_share =
      1.0 / (1.0 / fig6.benign + 1.0 / fig6.attack);  // interleaved
  std::printf("\nsystem view (set A, one regular instance):\n");
  std::printf("  benign capacity while mixed with attack: %7.0f Mbps\n",
              mixed_benign_share);
  std::printf("  benign capacity after diversion:         %7.0f Mbps "
              "(restored to baseline)\n", fig6.benign);
  return 0;
}
