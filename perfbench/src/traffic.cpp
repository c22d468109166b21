#include "traffic.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common.hpp"
#include "common/rng.hpp"
#include "net/reassembly.hpp"
#include "workload/adversarial_gen.hpp"
#include "workload/pattern_gen.hpp"
#include "workload/traffic_gen.hpp"

namespace perfbench {

namespace workload = dpisvc::workload;
using dpisvc::Rng;

namespace {

/// Offered rates of the latency phase: about a third of the closed-loop
/// throughput each workload reached at its calibration seeds on the
/// reference host (a 4-vCPU KVM guest) while it was quiet, so the open loop
/// stays below capacity when the host's neighbours halve it. At half load a
/// contended web_mss run fell below the offered rate, its backlog grew for
/// the whole phase, and p50 rose 25-fold. The rates are part of the workload
/// definition and do not follow the measured throughput, so latency always
/// compares at the same load.
constexpr WorkloadDef kWorkloads[] = {
    // name, kind, workers, dedicated, batch, open-loop pps, flows,
    // concurrency, packets/flow, segment bytes
    {"web_mss", Kind::kWeb, 3, false, 1024, 85000, 15000, 10000, 2, 8, 256,
     1460},
    {"web_small", Kind::kWeb, 1, false, 128, 90000, 75000, 50000, 2, 6, 40,
     200},
    {"attack_dense", Kind::kAttack, 1, true, 64, 15000, 64, 64, 200, 200, 256,
     1460},
    {"evasion_mix", Kind::kEvasion, 1, false, 128, 150000, 1200, 128, 2, 8,
     256, 1460},
};

/// Share of web packets carrying one planted rule string. With the literal
/// sets generated without protocol fragments nothing else in the HTTP-like
/// text matches, so well over 90% of packets carry no match (§6.5).
constexpr double kPlantedRate = 0.08;
/// Share of web flows on chain A; the rest take chain B.
constexpr double kChainAShare = 0.75;

constexpr std::uint8_t kPshAck = 0x18;
constexpr std::uint8_t kFinPshAck = 0x19;
constexpr std::uint8_t kFinAck = 0x11;

/// One concrete string matching a generate_regex_rules() expression: each
/// glue token is replaced by a short text it matches.
std::string instantiate_regex(const std::string& rule) {
  static const std::pair<std::string, std::string> kGlue[] = {
      {R"(\s+\w+\s+)", " via "}, {R"(\s*)", " "},   {R"(\d+)", "42"},
      {R"([a-z]*)", "ab"},       {R"(.{0,8})", "::"},
  };
  std::string out;
  std::size_t i = 0;
  while (i < rule.size()) {
    bool replaced = false;
    for (const auto& [token, text] : kGlue) {
      if (rule.compare(i, token.size(), token) == 0) {
        out += text;
        i += token.size();
        replaced = true;
        break;
      }
    }
    if (!replaced) out.push_back(rule[i++]);
  }
  return out;
}

/// Bijection on 24-bit values (odd multipliers and xor-shifts).
std::uint32_t permute24(std::uint32_t x) noexcept {
  constexpr std::uint32_t kMask = 0xFFFFFF;
  x = (x * 0xB5297Bu) & kMask;
  x ^= x >> 11;
  x = (x * 0x6F4F2Bu) & kMask;
  x ^= x >> 13;
  return x;
}

/// One flow under construction: its packets in delivery order.
struct FlowPlan {
  BaseFlow flow;
  std::vector<net::Packet> packets;
  std::vector<std::uint32_t> unique;
  std::vector<std::uint64_t> expect;
  /// Policy-normalized stream of an adversarial flow (the oracle's input).
  Bytes normalized;
};

/// Gives an in-order flow an ISN, contiguous sequence numbers and a FIN on
/// its last data segment (so the stream closes without an extra packet).
void sequence_in_order(FlowPlan& plan, Rng& rng) {
  auto seq = static_cast<std::uint32_t>(rng.next());
  for (std::size_t k = 0; k < plan.packets.size(); ++k) {
    net::Packet& p = plan.packets[k];
    p.tcp_seq = seq;
    p.tcp_flags = k + 1 == plan.packets.size() ? kFinPshAck : kPshAck;
    p.ip_id = static_cast<std::uint16_t>(k + 1);
    seq += static_cast<std::uint32_t>(p.payload.size());
    plan.unique.push_back(static_cast<std::uint32_t>(p.payload.size()));
    plan.flow.stream_bytes += p.payload.size();
  }
  plan.flow.packets = static_cast<std::uint32_t>(plan.packets.size());
}

/// In-order flows cut from one generated trace: flow f takes the next
/// uniform[min_packets, max_packets] packets.
void add_in_order_flows(std::vector<FlowPlan>& plans, std::size_t count,
                        const workload::Trace& trace,
                        std::size_t& next, const std::vector<std::size_t>& sizes,
                        const std::vector<dpi::ChainId>& chains, Rng& rng) {
  for (std::size_t f = 0; f < count; ++f) {
    FlowPlan plan;
    plan.flow.chain = chains[f];
    plan.flow.src_port = static_cast<std::uint16_t>(rng.uniform(1024, 65535));
    for (std::size_t k = 0; k < sizes[f]; ++k) {
      net::Packet p;
      p.payload = trace[next++].payload;
      plan.packets.push_back(std::move(p));
    }
    sequence_in_order(plan, rng);
    plans.push_back(std::move(plan));
  }
}

std::vector<std::size_t> packet_counts(std::size_t flows, const WorkloadDef& wd,
                                       Rng& rng, std::size_t& total) {
  std::vector<std::size_t> sizes(flows);
  total = 0;
  for (std::size_t& n : sizes) {
    n = rng.uniform(wd.min_packets, wd.max_packets);
    total += n;
  }
  return sizes;
}

workload::Trace http_packets(std::size_t count, std::size_t min_payload,
                             std::size_t max_payload, double planted_rate,
                             const TenantRules& rules, std::uint64_t seed) {
  workload::TrafficConfig tc;
  tc.num_packets = count;
  tc.min_payload = min_payload;
  tc.max_payload = max_payload;
  tc.num_flows = 1;
  tc.planted_match_rate = planted_rate;
  tc.planted_patterns = rules.plantable;
  tc.seed = seed;
  return workload::generate_http_trace(tc);
}

void make_web_flows(std::vector<FlowPlan>& plans, const WorkloadDef& wd,
                    const TenantRules& rules, const Chains& chains, Rng& rng) {
  std::size_t total = 0;
  const auto sizes = packet_counts(wd.flows, wd, rng, total);
  const workload::Trace trace = http_packets(
      total, wd.min_segment, wd.max_segment, kPlantedRate, rules, rng.next());
  std::vector<dpi::ChainId> flow_chains(wd.flows);
  for (auto& c : flow_chains) c = rng.bernoulli(kChainAShare) ? chains.a : chains.b;
  std::size_t next = 0;
  add_in_order_flows(plans, wd.flows, trace, next, sizes, flow_chains, rng);
}

void make_attack_flows(std::vector<FlowPlan>& plans, const WorkloadDef& wd,
                       const TenantRules& rules, const Chains& chains,
                       Rng& rng) {
  workload::TrafficConfig tc;
  tc.num_packets = wd.flows * wd.min_packets;
  tc.min_payload = wd.min_segment;
  tc.max_payload = wd.max_segment;
  tc.num_flows = wd.flows;
  tc.seed = rng.next();
  const workload::Trace trace =
      workload::generate_attack_trace(tc, rules.attack_targets);
  plans.resize(wd.flows);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    net::Packet p;
    p.payload = trace[i].payload;
    plans[i % wd.flows].packets.push_back(std::move(p));
  }
  for (FlowPlan& plan : plans) {
    plan.flow.chain = chains.a;
    plan.flow.src_port = static_cast<std::uint16_t>(rng.uniform(1024, 65535));
    sequence_in_order(plan, rng);
  }
}

/// Adversarial streams (make_evasion_trace) interleaved with in-order
/// benign flows, all on chain C. Half the adversarial streams use shuffled
/// 24-byte segments, half 192-byte segments cut into 64-byte IP fragments
/// (reversed for half of those); all carry 5% retransmits, and a quarter
/// start close enough to 2^32 that their sequence numbers wrap.
void make_evasion_flows(std::vector<FlowPlan>& plans, const WorkloadDef& wd,
                        const TenantRules& rules, const Chains& chains,
                        Rng& rng) {
  const std::size_t benign = wd.flows / 2;
  const std::size_t adversarial = wd.flows - benign;
  std::size_t total = 0;
  const auto sizes = packet_counts(benign, wd, rng, total);
  const workload::Trace trace = http_packets(
      total, wd.min_segment, wd.max_segment, kPlantedRate, rules, rng.next());
  std::size_t next = 0;
  add_in_order_flows(plans, benign, trace, next, sizes,
                     std::vector<dpi::ChainId>(benign, chains.c), rng);

  // One stream body per adversarial flow; most carry a planted rule string
  // that the segmentation then splits.
  const workload::Trace bodies =
      http_packets(adversarial, 600, 2400, 0.6, rules, rng.next());
  for (std::size_t f = 0; f < adversarial; ++f) {
    const Bytes& clean = bodies[f].payload;
    workload::EvasionSpec spec;
    spec.seed = rng.next();
    spec.retransmit_rate = 0.05;
    if (f % 2 == 0) {
      spec.segment_bytes = 24;
      spec.shuffle = true;
    } else {
      spec.segment_bytes = 192;
      spec.shuffle = rng.bernoulli(0.5);
      spec.fragment_payload = 64;
      spec.fragment_reverse = rng.bernoulli(0.5);
    }
    spec.initial_seq =
        rng.bernoulli(0.25)
            ? 0xFFFFFFFFu - static_cast<std::uint32_t>(rng.index(clean.size()))
            : static_cast<std::uint32_t>(rng.next());
    spec.first_ip_id = 1;
    const workload::AdversarialTrace adv =
        workload::make_evasion_trace(net::FiveTuple{}, clean, spec);

    FlowPlan plan;
    plan.flow.chain = chains.c;
    plan.flow.in_order = false;
    plan.flow.src_port = static_cast<std::uint16_t>(rng.uniform(1024, 65535));
    plan.flow.stream_bytes = clean.size();
    plan.normalized =
        workload::normalize_trace(adv, net::OverlapPolicy::kFirstWins).bytes;
    // Unique bytes: stream bytes a packet covers for the first time.
    std::vector<bool> seen(clean.size(), false);
    for (const net::Packet& p : adv.packets) {
      const std::uint64_t at =
          static_cast<std::uint32_t>(p.tcp_seq - spec.initial_seq) +
          static_cast<std::uint64_t>(p.frag_offset) * 8;
      std::uint32_t fresh = 0;
      for (std::size_t i = 0; i < p.payload.size() && at + i < seen.size(); ++i) {
        if (!seen[at + i]) {
          seen[at + i] = true;
          ++fresh;
        }
      }
      plan.unique.push_back(fresh);
      plan.packets.push_back(p);
    }
    // The FIN after all data closes the stream once its bytes are released.
    net::Packet fin;
    fin.tcp_seq = spec.initial_seq + static_cast<std::uint32_t>(clean.size());
    fin.tcp_flags = kFinAck;
    fin.ip_id = static_cast<std::uint16_t>(spec.first_ip_id + adv.segments.size());
    plan.packets.push_back(std::move(fin));
    plan.unique.push_back(0);
    plan.flow.packets = static_cast<std::uint32_t>(plan.packets.size());
    plans.push_back(std::move(plan));
  }
}

struct OracleTally {
  std::uint64_t matches = 0;
  std::uint32_t max_run = 0;
};

/// Folds one tenant's oracle result for packet `index` into `expect`.
void fold_oracle(const Tenant& tenant, const dpi::ScanResult& result,
                 std::uint32_t index, bool with_verdict, std::uint64_t& expect,
                 OracleTally& tally) {
  const dpi::MiddleboxId id = tenant.profile().id;
  const std::uint32_t key_index = tenant.profile().stateful ? 0 : index;
  for (const dpi::MiddleboxMatches& m : result.matches) {
    if (m.middlebox != id || m.entries.empty()) continue;
    for (const net::MatchEntry& e : m.entries) {
      tally.max_run = std::max(tally.max_run, e.run_length);
      for (std::uint32_t r = 0; r < e.run_length; ++r) {
        expect += match_key(id, key_index, e.pattern_id,
                            static_cast<std::uint64_t>(e.position) + r);
        ++tally.matches;
      }
    }
    if (with_verdict) expect += verdict_key(id, index, tenant.rule_verdict());
  }
}

/// The oracle: each tenant's own engine scans the flow's normalized stream —
/// packet by packet (cursor carried for stateful tenants) on in-order flows,
/// the normalize_trace() bytes in one pass on adversarial ones.
OracleTally run_oracle(std::vector<FlowPlan>& plans, std::size_t begin,
                       std::size_t end, const Chains& chains,
                       const std::vector<std::unique_ptr<Tenant>>& oracles,
                       const std::vector<const dpi::Engine*>& engines) {
  OracleTally tally;
  constexpr dpi::ChainId kSelfChain = 1;  // a standalone engine's only chain
  for (std::size_t f = begin; f < end; ++f) {
    FlowPlan& plan = plans[f];
    plan.expect.assign(plan.packets.size(), 0);
    for (dpi::MiddleboxId id : chain_members(chains, plan.flow.chain)) {
      const Tenant& tenant = *oracles[id - 1];
      const dpi::Engine& engine = *engines[id - 1];
      if (!plan.flow.in_order) {
        const dpi::ScanResult r = engine.scan_packet(kSelfChain, plan.normalized);
        fold_oracle(tenant, r, 0, false, plan.expect.back(), tally);
        continue;
      }
      dpi::FlowCursor cursor;
      for (std::size_t k = 0; k < plan.packets.size(); ++k) {
        dpi::ScanResult r =
            engine.scan_packet(kSelfChain, plan.packets[k].payload, cursor);
        fold_oracle(tenant, r, static_cast<std::uint32_t>(k), true,
                    plan.expect[k], tally);
        if (tenant.profile().stateful) cursor = std::move(r.cursor);
      }
    }
  }
  return tally;
}

/// Delivery order with about `window` flows in progress: each step emits the
/// next packet of a random in-progress flow, and a finished flow's slot goes
/// to the next unstarted flow.
std::vector<std::pair<std::uint32_t, std::uint32_t>> interleave(
    const std::vector<FlowPlan>& plans, std::size_t window, Rng& rng) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;
  std::vector<std::uint32_t> active;
  std::vector<std::uint32_t> pos(plans.size(), 0);
  std::uint32_t next = 0;
  const auto n = static_cast<std::uint32_t>(plans.size());
  while (next < n && active.size() < window) active.push_back(next++);
  while (!active.empty()) {
    const std::size_t j = rng.index(active.size());
    const std::uint32_t f = active[j];
    order.emplace_back(f, pos[f]++);
    if (pos[f] == plans[f].packets.size()) {
      if (next < n) {
        active[j] = next++;
      } else {
        active[j] = active.back();
        active.pop_back();
      }
    }
  }
  return order;
}

}  // namespace

TenantRules make_tenant_rules() {
  TenantRules rules;
  // Snort-like literals without protocol fragments: the fragments ("GET ",
  // "HTTP/1.", "Host: ", ...) occur in every HTTP header, and with them a
  // quarter of the generated web packets match.
  workload::PatternSetConfig snort = workload::snort_like(4356);
  snort.fragment_probability = 0.0;
  auto halves = workload::split_random(workload::generate_patterns(snort), 2, 41);
  rules.ids_exact = std::move(halves[0]);
  rules.l7fw_exact = std::move(halves[1]);
  rules.ids_regex = workload::generate_regex_rules(32, 43);
  rules.av_exact = workload::generate_patterns(workload::clamav_like(2000));

  constexpr std::size_t kPlantPerSet = 48;
  for (const auto* set : {&rules.ids_exact, &rules.l7fw_exact, &rules.av_exact}) {
    rules.plantable.insert(rules.plantable.end(), set->begin(),
                           set->begin() + kPlantPerSet);
  }
  for (const std::string& rule : rules.ids_regex) {
    rules.plantable.push_back(instantiate_regex(rule));
  }
  rules.attack_targets.insert(rules.attack_targets.end(),
                              rules.ids_exact.end() - 22, rules.ids_exact.end());
  rules.attack_targets.insert(rules.attack_targets.end(),
                              rules.l7fw_exact.end() - 21,
                              rules.l7fw_exact.end());
  rules.attack_targets.insert(rules.attack_targets.end(),
                              rules.av_exact.end() - 21, rules.av_exact.end());
  return rules;
}

Tenant::Tenant(dpi::MiddleboxProfile profile, mbox::Verdict verdict)
    : Middlebox(std::move(profile)), verdict_(verdict) {}

void Tenant::on_rule_hit(const mbox::RuleSpec& rule, const net::MatchEntry& entry,
                         const net::Packet& data) {
  (void)rule;
  (void)data;
  if (digest == nullptr) return;
  const dpi::MiddleboxId id = profile().id;
  const std::uint32_t key_index = profile().stateful ? 0 : packet_index;
  for (std::uint32_t r = 0; r < entry.run_length; ++r) {
    *digest += match_key(id, key_index, entry.pattern_id,
                         static_cast<std::uint64_t>(entry.position) + r);
  }
}

std::vector<std::unique_ptr<Tenant>> make_tenants(const TenantRules& rules) {
  auto profile = [](dpi::MiddleboxId id, const char* name, bool stateful,
                    bool read_only) {
    dpi::MiddleboxProfile p;
    p.id = id;
    p.name = name;
    p.stateful = stateful;
    p.read_only = read_only;
    return p;
  };
  std::vector<std::unique_ptr<Tenant>> tenants;
  tenants.push_back(std::make_unique<Tenant>(profile(kIds, "ids", true, true),
                                             mbox::Verdict::kAlert));
  tenants.push_back(std::make_unique<Tenant>(
      profile(kL7fw, "l7fw", false, false), mbox::Verdict::kDrop));
  tenants.push_back(std::make_unique<Tenant>(profile(kAv, "av", true, false),
                                             mbox::Verdict::kQuarantine));
  auto add_exact = [](Tenant& t, const std::vector<std::string>& set,
                      dpi::PatternId& id) {
    for (const std::string& s : set) {
      mbox::RuleSpec rule;
      rule.id = id++;
      rule.exact = s;
      rule.verdict = t.rule_verdict();
      t.add_rule(std::move(rule));
    }
  };
  dpi::PatternId id = 0;
  add_exact(*tenants[0], rules.ids_exact, id);
  for (const std::string& expr : rules.ids_regex) {
    mbox::RuleSpec rule;
    rule.id = id++;
    rule.regex = expr;
    rule.verdict = tenants[0]->rule_verdict();
    tenants[0]->add_rule(std::move(rule));
  }
  id = 0;
  add_exact(*tenants[1], rules.l7fw_exact, id);
  id = 0;
  add_exact(*tenants[2], rules.av_exact, id);
  return tenants;
}

std::uint64_t match_key(dpi::MiddleboxId tenant, std::uint32_t packet_index,
                        std::uint32_t pattern, std::uint64_t position) {
  const std::uint64_t head =
      mix64((static_cast<std::uint64_t>(tenant) << 32) | packet_index);
  return mix64(mix64(head ^ pattern) ^ position);
}

std::uint64_t verdict_key(dpi::MiddleboxId tenant, std::uint32_t packet_index,
                          mbox::Verdict verdict) {
  const std::uint64_t head =
      mix64((static_cast<std::uint64_t>(tenant) << 32) | packet_index);
  return mix64(head ^ 0x5645524449435400ull ^ static_cast<std::uint64_t>(verdict));
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& wd : kWorkloads) {
    if (name == wd.name) return &wd;
  }
  return nullptr;
}

std::vector<dpi::MiddleboxId> chain_members(const Chains& chains,
                                            dpi::ChainId chain) {
  if (chain == chains.a) return {kIds, kL7fw, kAv};
  if (chain == chains.b) return {kL7fw};
  if (chain == chains.c) return {kIds, kAv};
  return {};
}

net::FiveTuple replay_tuple(std::uint64_t replay, std::uint32_t flow,
                            std::size_t num_flows, std::uint16_t src_port) {
  const std::uint64_t idx = replay * num_flows + flow;
  const std::uint32_t low = permute24(static_cast<std::uint32_t>(idx & 0xFFFFFF));
  const auto high = static_cast<std::uint32_t>(idx >> 24);
  net::FiveTuple t;
  t.src_ip = net::Ipv4Addr(10, static_cast<std::uint8_t>(low >> 16),
                           static_cast<std::uint8_t>(low >> 8),
                           static_cast<std::uint8_t>(low));
  t.dst_ip = net::Ipv4Addr(93, 184, static_cast<std::uint8_t>(high >> 8),
                           static_cast<std::uint8_t>(high));
  t.src_port = src_port;
  t.dst_port = 80;
  t.proto = net::IpProto::kTcp;
  return t;
}

BaseTrace make_base_trace(const WorkloadDef& wd, const TenantRules& rules,
                          std::vector<std::unique_ptr<Tenant>>& oracles,
                          const Chains& chains, std::uint64_t seed) {
  Rng rng(mix64(seed) ^ mix64(static_cast<std::uint64_t>(wd.kind) + 0x51));
  std::vector<FlowPlan> plans;
  switch (wd.kind) {
    case Kind::kWeb:
      make_web_flows(plans, wd, rules, chains, rng);
      break;
    case Kind::kAttack:
      make_attack_flows(plans, wd, rules, chains, rng);
      break;
    case Kind::kEvasion:
      make_evasion_flows(plans, wd, rules, chains, rng);
      break;
  }
  // Flows start in random order, so flows of every kind are spread evenly
  // over the trace and the offered load is the same throughout a replay
  // (evasion_mix would otherwise send all benign flows, then all
  // adversarial ones).
  rng.shuffle(plans);

  // Oracle engines compile once (lazily, per tenant) before the threads
  // share them read-only.
  std::vector<const dpi::Engine*> engines;
  for (auto& t : oracles) engines.push_back(&t->standalone_engine());
  constexpr std::size_t kOracleThreads = 4;
  std::vector<OracleTally> tallies(kOracleThreads);
  std::vector<std::thread> threads;
  const std::size_t per = (plans.size() + kOracleThreads - 1) / kOracleThreads;
  for (std::size_t t = 0; t < kOracleThreads; ++t) {
    const std::size_t begin = std::min(plans.size(), t * per);
    const std::size_t end = std::min(plans.size(), begin + per);
    threads.emplace_back([&, t, begin, end] {
      tallies[t] = run_oracle(plans, begin, end, chains, oracles, engines);
    });
  }
  for (std::thread& th : threads) th.join();

  BaseTrace base;
  for (const OracleTally& t : tallies) {
    base.oracle_matches += t.matches;
    base.max_run = std::max(base.max_run, t.max_run);
  }
  for (const FlowPlan& plan : plans) {
    base.max_stream = std::max(base.max_stream, plan.flow.stream_bytes);
  }
  // The uniform report codec carries 24-bit positions and 8-bit runs;
  // net::encode_report throws past either, so the generator must stay
  // inside them.
  if (base.max_stream >= (1u << 24)) {
    throw std::runtime_error("generator: a flow stream reaches 2^24 bytes");
  }
  if (base.max_run > 256) {
    throw std::runtime_error("generator: a match run exceeds 256 positions");
  }

  const auto order = interleave(plans, wd.concurrency, rng);
  base.packets.reserve(order.size());
  for (const auto& [f, k] : order) {
    FlowPlan& plan = plans[f];
    BasePacket bp;
    bp.flow = f;
    bp.index = k;
    bp.packet = std::move(plan.packets[k]);
    bp.unique_bytes = plan.unique[k];
    bp.expect = plan.expect[k];
    base.offered_bytes += bp.packet.payload.size();
    base.unique_bytes += bp.unique_bytes;
    base.packets.push_back(std::move(bp));
  }
  base.flows.reserve(plans.size());
  for (FlowPlan& plan : plans) base.flows.push_back(plan.flow);
  return base;
}

}  // namespace perfbench
