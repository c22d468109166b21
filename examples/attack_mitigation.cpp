// Figure 6 demo: MCA²-style mitigation of complexity attacks on the DPI
// service (§4.3.1).
//
// Phase 1: benign traffic flows through a regular instance; telemetry stays
//          quiet.
// Phase 2: an attacker sends payloads stitched from signature fragments,
//          driving the accepting-state hit density far above benign levels.
// Phase 3: the DPI controller detects the stress, designates the dedicated
//          instance (the failure-link automaton without the hot kernel),
//          migrates the heavy chain there via the TSA, and the regular
//          instance recovers.
#include <cstdio>

#include "common/logging.hpp"
#include "mbox/boxes.hpp"
#include "mbox/middlebox_node.hpp"
#include "netsim/controller.hpp"
#include "netsim/host.hpp"
#include "netsim/switch.hpp"
#include "service/instance_node.hpp"
#include "workload/pattern_gen.hpp"
#include "workload/traffic_gen.hpp"

using namespace dpisvc;

int main() {
  set_log_level(LogLevel::kInfo);

  service::StressConfig stress;
  stress.hits_per_byte_threshold = 0.005;
  stress.min_window_bytes = 4096;
  stress.smoothing_windows = 2;
  service::DpiController controller(stress);

  // An IDS with a synthetic Snort-like rule set.
  mbox::Ids ids(1, /*stateful=*/false);
  const auto patterns =
      workload::generate_patterns(workload::snort_like(400, 42));
  dpi::PatternId rule_id = 0;
  for (const std::string& p : patterns) {
    mbox::RuleSpec rule;
    rule.id = rule_id++;
    rule.exact = p;
    rule.verdict = mbox::Verdict::kAlert;
    ids.add_rule(rule);
  }
  ids.attach(controller);
  const dpi::ChainId chain = controller.register_policy_chain({1});

  auto regular = controller.create_instance("regular-1");
  service::InstanceConfig dedicated_config;
  dedicated_config.dedicated = true;
  auto dedicated = controller.create_instance("dedicated-1", dedicated_config);
  controller.assign_chain(chain, "regular-1");
  std::printf("regular engine:   failure-link AC + hot kernel, %.1f MB\n",
              (regular->engine()->memory_bytes() +
               regular->engine()->kernel_memory_bytes()) / 1e6);
  std::printf("dedicated engine: failure-link AC alone, %.1f MB\n",
              dedicated->engine()->memory_bytes() / 1e6);

  netsim::Fabric fabric;
  fabric.add_node<netsim::Switch>("s1");
  netsim::Host& src = fabric.add_node<netsim::Host>("src");
  fabric.add_node<netsim::Host>("dst");
  fabric.add_node<service::InstanceNode>("regular-1", regular);
  fabric.add_node<service::InstanceNode>("dedicated-1", dedicated);
  fabric.add_node<mbox::MiddleboxNode>("ids", ids, mbox::NodeMode::kService);
  for (const char* n : {"src", "dst", "regular-1", "dedicated-1", "ids"}) {
    fabric.connect("s1", n);
  }
  src.set_gateway("s1");
  netsim::SdnController sdn(fabric);
  netsim::TrafficSteeringApp tsa(sdn, "s1");
  netsim::PolicyChainSpec spec;
  spec.id = chain;
  spec.ingress = "src";
  spec.sequence = {"regular-1", "ids"};
  spec.egress = "dst";
  tsa.install_chain(spec);

  auto pump = [&](const workload::Trace& trace, std::uint16_t base_id) {
    std::uint16_t ip_id = base_id;
    for (const auto& t : trace) {
      src.send(workload::to_packet(t, ip_id++));
      fabric.run();
    }
  };

  // Phase 1: benign traffic.
  workload::TrafficConfig benign;
  benign.num_packets = 150;
  benign.planted_match_rate = 0.02;
  benign.planted_patterns = {patterns[0], patterns[1]};
  pump(workload::generate_http_trace(benign), 0);
  controller.collect_telemetry();
  std::printf("\n[phase 1] benign: signal=%.4f hits/byte, stressed=%s\n",
              controller.stress_monitor().smoothed_signal("regular-1"),
              controller.stress_monitor().is_stressed("regular-1") ? "YES"
                                                                   : "no");

  // Phase 2: complexity attack.
  workload::TrafficConfig attack_cfg;
  attack_cfg.num_packets = 150;
  const std::vector<std::string> attack_targets(patterns.begin(),
                                                patterns.begin() + 20);
  pump(workload::generate_attack_trace(attack_cfg, attack_targets), 1000);
  controller.collect_telemetry();
  std::printf("[phase 2] attack: signal=%.4f hits/byte, stressed=%s\n",
              controller.stress_monitor().smoothed_signal("regular-1"),
              controller.stress_monitor().is_stressed("regular-1") ? "YES"
                                                                   : "no");

  // Phase 3: mitigation.
  const service::MitigationPlan plan = controller.evaluate_mitigation();
  if (plan.empty()) {
    std::printf("no mitigation required\n");
    return 0;
  }
  controller.apply_mitigation(plan);
  for (const service::Migration& m : plan.migrations) {
    tsa.update_sequence(m.chain, {m.to_instance, "ids"});
    std::printf("[phase 3] chain %u diverted: %s -> %s\n", m.chain,
                m.from_instance.c_str(), m.to_instance.c_str());
  }

  const auto regular_before = regular->telemetry().packets;
  pump(workload::generate_attack_trace(attack_cfg, attack_targets), 2000);
  std::printf("[phase 3] after diversion: regular scanned +%llu packets, "
              "dedicated scanned %llu packets\n",
              static_cast<unsigned long long>(regular->telemetry().packets -
                                              regular_before),
              static_cast<unsigned long long>(
                  dedicated->telemetry().packets));
  std::printf("IDS alerts collected end-to-end: %zu\n", ids.alerts().size());
  return 0;
}
