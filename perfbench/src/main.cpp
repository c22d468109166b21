// End-to-end benchmark of the DPI service path (see perfbench/README.md).
//
//   dpibench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>]
//
// One run stands the service up through its control plane (tenants register
// over the JSON channel; the controller compiles the engine into an
// instance), drives the workload's packets through
// DpiInstance::process_batch, hands every result to the tenants through
// net::decode_report and Middlebox::apply_report_entries, and checks every
// flow's delivered matches and verdicts against per-tenant oracle engines.
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "common/logging.hpp"
#include "service/controller.hpp"
#include "service/ingest.hpp"
#include "service/instance.hpp"
#include "traffic.hpp"

namespace perfbench {
namespace {

namespace service = dpisvc::service;
using dpisvc::BytesView;

/// Set-ups per run; setup_s and the set-up layers report the median.
constexpr int kSetups = 5;
/// Each measured phase is cut into windows of this length.
constexpr std::uint64_t kWindowNs = 100'000'000;
/// Least time between two submissions of the open loop. Submitting each
/// packet as soon as it is due makes latency track the host rather than the
/// program: web_mss's 3-worker pool turns bistable (small batches keep the
/// workers awake and fast, one slow wake-up makes the next batches larger
/// and the wake-ups later; p50 settled anywhere from 70 to 140 µs across
/// runs of one seed), and on the 1-worker workloads, where a lone packet
/// takes 2-5 µs, p99 followed the host's load (0.4 spread over five runs).
constexpr std::uint64_t kPollNs = 250'000;
/// Latency windows with fewer samples are not reported (p99 needs at least
/// ten samples beyond it).
constexpr std::size_t kMinWindowSamples = 1000;
/// The closed- and open-loop phases alternate over this many rounds, so each
/// metric's windows come from the whole run rather than one stretch of it.
constexpr int kRounds = 8;
/// Packets the traced run replays through the instance's stages, and how
/// often the untraced passes that compare whole paths run (the best counts).
constexpr std::size_t kReplayPackets = 40000;
constexpr int kPathRepeats = 3;

/// The host is a shared VM: neighbours slow it by up to half for seconds at
/// a time. A phase's metric is the decile of its per-window values on the
/// quiet side, the 90th percentile of a rate and the 10th percentile of a
/// time, so it describes the program rather than how much of the run a
/// neighbour was busy.
double quiet_rate(std::vector<double> windows) {
  return quantile(windows, 0.9);
}
double quiet_time(std::vector<double> windows) {
  return quantile(windows, 0.1);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--out-dir") {
      o.out_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (o.workload.empty() || o.seconds <= 0) {
    throw std::invalid_argument(
        "usage: dpibench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--out-dir <dir>]");
  }
  return o;
}

service::InstanceConfig instance_config(const WorkloadDef& wd,
                                        std::size_t workers) {
  service::InstanceConfig cfg;
  cfg.result_mode = service::ResultMode::kDedicatedPacket;
  cfg.dedicated = wd.dedicated;
  cfg.reassemble_tcp = true;
  cfg.defragment_ip = true;
  cfg.num_workers = workers;
  return cfg;
}

/// Where the run's threads go: the driver on one CPU of its own, the
/// instance's pool workers on the others, so the load generator never
/// competes with a worker for a core. Empty lists on a 1-CPU host.
struct Placement {
  std::vector<int> all;
  std::vector<int> driver;
  std::vector<int> workers;
};

Placement make_placement() {
  Placement p;
  p.all = allowed_cpus();
  if (p.all.size() >= 2) {
    p.driver = {p.all.back()};
    p.workers.assign(p.all.begin(), p.all.end() - 1);
  }
  return p;
}

/// The service as one run stands it up.
struct Service {
  std::unique_ptr<service::DpiController> controller;
  std::vector<std::unique_ptr<Tenant>> tenants;  ///< index = id - 1
  std::shared_ptr<service::DpiInstance> instance;
  Chains chains;
  double register_s = 0;
  double compile_s = 0;
  double setup_s = 0;
};

/// Tenant registration and admission analysis over the JSON channel, chain
/// registration, then engine compile and load through create_instance. The
/// instance's workers are created on `place.workers`.
Service stand_up(const TenantRules& rules, const WorkloadDef& wd,
                 const Placement& place, SpanLog& spans) {
  Service s;
  s.tenants = make_tenants(rules);
  const std::uint64_t t0 = now_ns();
  s.controller = std::make_unique<service::DpiController>();
  for (auto& tenant : s.tenants) {
    const Span span(spans, SpanLog::kAttach);
    tenant->attach(*s.controller);
  }
  s.chains.a = s.controller->register_policy_chain({kIds, kL7fw, kAv});
  s.chains.b = s.controller->register_policy_chain({kL7fw});
  s.chains.c = s.controller->register_policy_chain({kIds, kAv});
  const std::uint64_t t1 = now_ns();
  run_on(place.workers);
  {
    const Span span(spans, SpanLog::kCreateInstance);
    s.instance = s.controller->create_instance("dpi-0",
                                               instance_config(wd, wd.workers));
  }
  const std::uint64_t t2 = now_ns();
  run_on(place.all);
  if (!s.instance->has_engine()) {
    throw std::runtime_error("set-up: the instance has no engine");
  }
  s.register_s = static_cast<double>(t1 - t0) * 1e-9;
  s.compile_s = static_cast<double>(t2 - t1) * 1e-9;
  s.setup_s = static_cast<double>(t2 - t0) * 1e-9;
  return s;
}

/// Digests of what each flow of one replay was delivered and what the
/// oracle expects for the packets delivered so far, indexed by base flow.
/// A replay sends every packet of its flows before the next replay starts,
/// so one book is reused for every replay.
struct FlowBook {
  std::vector<std::uint64_t> delivered;
  std::vector<std::uint64_t> expected;
  std::vector<std::uint32_t> done;

  explicit FlowBook(std::size_t flows)
      : delivered(flows, 0), expected(flows, 0), done(flows, 0) {}

  void reset() {
    std::fill(delivered.begin(), delivered.end(), 0);
    std::fill(expected.begin(), expected.end(), 0);
    std::fill(done.begin(), done.end(), 0);
  }
};

struct FlowVerdicts {
  std::uint64_t checked = 0;
  std::uint64_t wrong = 0;
};

/// In-order flows are compared on the packets delivered so far (the oracle
/// attributes each match to the packet carrying its bytes); adversarial
/// flows only once complete. `patch` overrides one flow's delivered digest
/// (the self-check).
FlowVerdicts evaluate(const FlowBook& book, const BaseTrace& base,
                      std::size_t patch_flow = SIZE_MAX,
                      std::uint64_t patch_value = 0) {
  FlowVerdicts v;
  for (std::size_t f = 0; f < book.done.size(); ++f) {
    if (book.done[f] == 0) continue;
    if (!base.flows[f].in_order && book.done[f] != base.flows[f].packets) {
      continue;
    }
    ++v.checked;
    const std::uint64_t got = f == patch_flow ? patch_value : book.delivered[f];
    if (got != book.expected[f]) ++v.wrong;
  }
  return v;
}

/// Drives the replay sequence (replay r, base packet p) through the
/// instance and delivers every result to the tenants.
class Driver {
 public:
  Driver(Service& svc, const BaseTrace& base, SpanLog& spans)
      : svc_(svc), base_(base), spans_(spans), book_(base.flows.size()) {
    for (dpi::ChainId c : {svc.chains.a, svc.chains.b, svc.chains.c}) {
      if (c >= members_.size()) members_.resize(c + 1);
      members_[c] = chain_members(svc.chains, c);
    }
  }

  /// Submits the next `n` packets as one process_batch call and applies
  /// every verdict. Returns the completion time.
  std::uint64_t run_batch(std::size_t n) {
    const std::uint64_t num_base = base_.packets.size();
    const std::size_t num_flows = base_.flows.size();
    std::vector<net::Packet> packets;
    packets.reserve(n);
    const std::uint64_t g0 = now_ns();
    spans_.open(SpanLog::kBuildPackets);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t g = next_ + i;
      const BasePacket& bp = base_.packets[g % num_base];
      const BaseFlow& flow = base_.flows[bp.flow];
      net::Packet p = bp.packet;
      p.tuple = replay_tuple(g / num_base, bp.flow, num_flows, flow.src_port);
      p.push_tag(net::TagKind::kPolicyChain, flow.chain);
      offered_bytes += p.payload.size();
      packets.push_back(std::move(p));
    }
    spans_.close();
    gen_ns += now_ns() - g0;

    spans_.open(SpanLog::kProcessBatch);
    std::vector<service::ProcessOutput> outs =
        svc_.instance->process_batch(std::move(packets));
    const std::uint64_t batch_ns = spans_.close();
    if (spans_.enabled()) batch_us.push_back(static_cast<double>(batch_ns) / 1e3);
    if (outs.size() != n) {
      throw std::runtime_error("process_batch returned " +
                               std::to_string(outs.size()) + " outputs for " +
                               std::to_string(n) + " packets");
    }

    static const std::vector<net::MatchEntry> kNoEntries;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t g = next_ + i;
      if (g / num_base != book_replay_) {
        close_replay();
        book_replay_ = g / num_base;
      }
      const BasePacket& bp = base_.packets[g % num_base];
      const BaseFlow& flow = base_.flows[bp.flow];
      const service::ProcessOutput& out = outs[i];

      const std::vector<net::MatchEntry>* entries[kNumTenants + 1] = {};
      net::MatchReport report;
      if (out.result) {
        ++matched_packets;
        if (!out.result->service_header) {
          ++anomalies;
        } else {
          const Bytes& meta = out.result->service_header->metadata;
          report_bytes += meta.size();
          {
            const Span span(spans_, SpanLog::kDecodeReport);
            report = net::decode_report(meta);
          }
          if (report.policy_chain_id != flow.chain) ++anomalies;
          const auto& members = members_[flow.chain];
          for (const net::MiddleboxSection& s : report.sections) {
            if (std::find(members.begin(), members.end(), s.middlebox_id) ==
                members.end()) {
              ++anomalies;
              continue;
            }
            entries[s.middlebox_id] = &s.entries;
            entries_delivered += s.entries.size();
          }
        }
      }
      std::uint64_t& delivered = book_.delivered[bp.flow];
      const std::uint64_t before = delivered;
      {
        const Span span(spans_, SpanLog::kApplyVerdicts);
        for (dpi::MiddleboxId id : members_[flow.chain]) {
          Tenant& tenant = *svc_.tenants[id - 1];
          tenant.digest = &delivered;
          tenant.packet_index = bp.index;
          const mbox::Verdict v = tenant.apply_report_entries(
              out.data, entries[id] != nullptr ? *entries[id] : kNoEntries);
          if (flow.in_order && v != mbox::Verdict::kPass) {
            delivered += verdict_key(id, bp.index, v);
          }
        }
      }
      if (!self_checked_ && probe_flow_ == SIZE_MAX && flow.in_order &&
          !report.sections.empty() && !report.sections[0].entries.empty()) {
        // Self-check material: this packet's whole report, and its first
        // entry moved one run on.
        probe_flow_ = bp.flow;
        probe_drop_ = delivered - before;
        const net::MatchEntry& e = report.sections[0].entries[0];
        const dpi::MiddleboxId id = report.sections[0].middlebox_id;
        const std::uint32_t key_index =
            svc_.tenants[id - 1]->profile().stateful ? 0 : bp.index;
        probe_alter_ =
            match_key(id, key_index, e.pattern_id,
                      static_cast<std::uint64_t>(e.position) + e.run_length) -
            match_key(id, key_index, e.pattern_id, e.position);
      }
      book_.expected[bp.flow] += bp.expect;
      ++book_.done[bp.flow];
      unique_bytes += bp.unique_bytes;
    }
    next_ += n;
    submitted += n;
    return now_ns();
  }

  /// Checks the replay in progress and returns the run's verdicts.
  FlowVerdicts finish() {
    close_replay();
    return verdicts_;
  }

  /// True once dropping and altering one delivered report were both
  /// flagged by the same comparison that checks the run.
  bool self_check_passed() const noexcept { return self_check_passed_; }

  std::uint64_t submitted = 0;
  std::uint64_t offered_bytes = 0;
  std::uint64_t unique_bytes = 0;
  std::uint64_t matched_packets = 0;
  std::uint64_t report_bytes = 0;
  std::uint64_t entries_delivered = 0;
  std::uint64_t anomalies = 0;
  std::uint64_t gen_ns = 0;
  std::vector<double> batch_us;

 private:
  void close_replay() {
    const FlowVerdicts v = evaluate(book_, base_);
    verdicts_.checked += v.checked;
    verdicts_.wrong += v.wrong;
    if (probe_flow_ != SIZE_MAX && !self_checked_) {
      const std::uint64_t got = book_.delivered[probe_flow_];
      self_check_passed_ =
          evaluate(book_, base_, probe_flow_, got - probe_drop_).wrong > v.wrong &&
          evaluate(book_, base_, probe_flow_, got + probe_alter_).wrong > v.wrong;
      self_checked_ = true;
    }
    book_.reset();
  }

  Service& svc_;
  const BaseTrace& base_;
  SpanLog& spans_;
  std::vector<std::vector<dpi::MiddleboxId>> members_;
  std::uint64_t next_ = 0;
  FlowBook book_;
  std::uint64_t book_replay_ = 0;
  FlowVerdicts verdicts_;
  std::size_t probe_flow_ = SIZE_MAX;
  std::uint64_t probe_drop_ = 0;
  std::uint64_t probe_alter_ = 0;
  bool self_checked_ = false;
  bool self_check_passed_ = false;
};

/// Per-window values of the closed-loop phases of a run.
struct ClosedLoop {
  std::vector<double> pps;
  std::vector<double> mbps;
  std::vector<double> cpu_us_per_pkt;
  std::uint64_t cpu_ns = 0;
  std::uint64_t wall_ns = 0;
};

/// Closed loop: one batch in flight; the next is submitted once the last
/// one's verdicts are applied. Appends its windows to `into`.
void closed_loop(Driver& d, std::size_t batch, double seconds,
                 ClosedLoop& into) {
  const std::uint64_t start = now_ns();
  const std::uint64_t cpu_start = process_cpu_ns();
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t w_start = start;
  std::uint64_t w_cpu = cpu_start;
  std::uint64_t w_pkts = d.submitted;
  std::uint64_t w_bytes = d.unique_bytes;
  std::uint64_t now = start;
  while (now < end) {
    now = d.run_batch(batch);
    if (now - w_start >= kWindowNs) {
      const double dt = static_cast<double>(now - w_start) * 1e-9;
      const std::uint64_t c = process_cpu_ns();
      const auto pk = static_cast<double>(d.submitted - w_pkts);
      into.pps.push_back(pk / dt);
      into.mbps.push_back(static_cast<double>(d.unique_bytes - w_bytes) * 8.0 /
                          1e6 / dt);
      into.cpu_us_per_pkt.push_back(static_cast<double>(c - w_cpu) / 1e3 / pk);
      w_start = now;
      w_cpu = c;
      w_pkts = d.submitted;
      w_bytes = d.unique_bytes;
    }
  }
  into.cpu_ns += process_cpu_ns() - cpu_start;
  into.wall_ns += now_ns() - start;
}

/// Per-window latency percentiles of the open-loop phases of a run, and how
/// late the driver sent packets that came due while it was idle.
struct OpenLoop {
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<double> lag_us;
};

/// Open loop at the workload's offered rate: packet j is due at
/// t0 + j / rate and timed from then until its tenants' verdicts are
/// applied. The driver polls its input like a poll-mode NIC driver: once
/// kPollNs have passed since its last submission and a packet is due, it
/// submits every packet already due, up to one batch, in one call. Appends
/// its windows to `into`.
void open_loop(Driver& d, const WorkloadDef& wd, double seconds,
               OpenLoop& into) {
  const double interval = 1e9 / wd.open_loop_pps;
  const std::uint64_t t0 = now_ns() + 1'000'000;
  const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  auto due = [&](std::uint64_t j) {
    return t0 + static_cast<std::uint64_t>(static_cast<double>(j) * interval);
  };
  std::vector<std::vector<double>> windows;
  std::uint64_t j = 0;
  std::uint64_t last_submit = 0;
  while (true) {
    std::uint64_t now = now_ns();
    if (now >= end) break;
    const std::uint64_t next = std::max(due(j), last_submit + kPollNs);
    if (next > now) {
      // Yielding while waiting leaves the CPU to anything else woken on it.
      while ((now = now_ns()) < next) sched_yield();
      into.lag_us.push_back(static_cast<double>(now - next) / 1e3);
    }
    const auto ready =
        static_cast<std::uint64_t>(static_cast<double>(now - t0) / interval) + 1;
    const auto n = static_cast<std::size_t>(
        std::clamp<std::uint64_t>(ready > j ? ready - j : 1, 1, wd.batch));
    last_submit = now;
    const std::uint64_t done = d.run_batch(n);
    for (std::uint64_t k = j; k < j + n; ++k) {
      const std::uint64_t w = (due(k) - t0) / kWindowNs;
      if (w >= windows.size()) windows.resize(w + 1);
      windows[w].push_back(static_cast<double>(done - due(k)) / 1e3);
    }
    j += n;
  }
  for (auto& w : windows) {
    if (w.size() < kMinWindowSamples) continue;
    into.p50_us.push_back(quantile(w, 0.50));
    into.p99_us.push_back(quantile(w, 0.99));
  }
}

struct Replay {
  double ns_per_pkt = 0;
  std::uint64_t packets = 0;
  std::uint64_t scanned_bytes = 0;
  std::uint64_t reports = 0;
  double unscanned_pct = 0;
};

/// Replays packets on one thread, on fresh stage objects, through the public
/// functions the instance composes (defrag, reassembly, flow table, scan,
/// report encode). With `spans` enabled each call is a child span of its
/// packet's span, and traverse_only runs on the same bytes in a span of its
/// own, outside the packet span; disabled, the loop is the bare composition.
Replay replay_layers(Service& svc, const BaseTrace& base, SpanLog& spans,
                     std::uint64_t replay_index, std::size_t max_packets) {
  const auto engine = svc.instance->engine_snapshot();
  const service::InstanceConfig& cfg = svc.instance->config();
  net::IpDefragmenter defrag(cfg.defrag);
  net::FlowReassembler reassembler(cfg.reassembly);
  dpi::FlowTable flows(cfg.max_flows);
  const std::size_t m = std::min(max_packets, base.packets.size());
  std::vector<std::uint64_t> offered(base.flows.size(), 0);
  std::vector<std::uint64_t> released(base.flows.size(), 0);
  std::vector<std::uint32_t> seen(base.flows.size(), 0);
  Replay r;
  std::uint64_t sink = 0;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < m; ++i) {
    const BasePacket& bp = base.packets[i];
    const BaseFlow& flow = base.flows[bp.flow];
    net::Packet packet = bp.packet;
    packet.tuple = replay_tuple(replay_index, bp.flow, base.flows.size(),
                                flow.src_port);
    offered[bp.flow] += bp.unique_bytes;
    ++seen[bp.flow];
    ++r.packets;
    const auto id = static_cast<std::uint32_t>(i);
    spans.open(SpanLog::kReplayPacket, id);
    bool held = false;
    if (packet.is_fragment()) {
      spans.open(SpanLog::kDefragFeed, id);
      std::optional<net::Packet> full = defrag.feed(packet);
      spans.close();
      if (full) {
        packet = std::move(*full);
      } else {
        held = true;
      }
    } else {
      spans.open(SpanLog::kDefragTick, id);
      defrag.tick();
      spans.close();
    }
    std::optional<net::ReassembledChunk> chunk;
    if (!held) {
      spans.open(SpanLog::kReassemblyFeed, id);
      chunk = reassembler.feed(packet);
      spans.close();
      held = !chunk;
    }
    if (held) {
      spans.close();
      continue;
    }
    const BytesView bytes = chunk->data;
    released[bp.flow] += bytes.size();
    const bool stateful = engine->chain_stateful(flow.chain);
    dpi::FlowCursor cursor;
    if (stateful) {
      spans.open(SpanLog::kFlowLookup, id);
      cursor = flows.lookup(packet.tuple);
      spans.close();
    }
    spans.open(SpanLog::kScanPacket, id);
    const dpi::ScanResult scanned = engine->scan_packet(flow.chain, bytes, cursor);
    spans.close();
    if (stateful) {
      spans.open(SpanLog::kFlowUpdate, id);
      flows.update(packet.tuple, scanned.cursor);
      spans.close();
    }
    r.scanned_bytes += bytes.size();
    if (scanned.has_matches()) {
      net::MatchReport report;
      report.policy_chain_id = flow.chain;
      report.packet_ref = packet.tuple.hash();
      for (const dpi::MiddleboxMatches& mm : scanned.matches) {
        if (mm.entries.empty()) continue;
        report.sections.push_back(net::MiddleboxSection{mm.middlebox, mm.entries});
      }
      spans.open(SpanLog::kEncodeReport, id);
      const Bytes encoded = net::encode_report(report, cfg.codec);
      spans.close();
      sink += encoded.size();
      ++r.reports;
    }
    spans.close();  // packet
    if (spans.enabled()) {
      spans.open(SpanLog::kTraverseOnly, id);
      sink += engine->traverse_only(bytes);
      spans.close();
    }
  }
  r.ns_per_pkt = static_cast<double>(now_ns() - t0) / static_cast<double>(m);
  std::uint64_t off = 0;
  std::uint64_t lost = 0;
  for (std::size_t f = 0; f < base.flows.size(); ++f) {
    if (seen[f] != base.flows[f].packets) continue;  // cut by the replay size
    off += offered[f];
    lost += offered[f] > released[f] ? offered[f] - released[f] : 0;
  }
  r.unscanned_pct = off == 0 ? 0.0 : 100.0 * static_cast<double>(lost) /
                                          static_cast<double>(off);
  if (sink == 0x5eed) std::fprintf(stderr, " ");  // keep the walk observable
  return r;
}

/// The 1-worker full path and the scan-only IngestPipeline on the same
/// packets, each on a fresh instance sharing the compiled engine; the best
/// of kPathRepeats passes of each.
struct PathTimes {
  double full_ns_per_pkt = 0;
  double ingest_ns_per_pkt = 0;
};

PathTimes time_paths(Service& svc, const BaseTrace& base, const WorkloadDef& wd,
                     std::uint64_t replay_index, std::size_t max_packets) {
  const std::size_t m = std::min(max_packets, base.packets.size());
  auto tuple_of = [&](const BasePacket& bp, std::uint64_t replay) {
    return replay_tuple(replay, bp.flow, base.flows.size(),
                        base.flows[bp.flow].src_port);
  };
  auto full_pass = [&] {
    auto inst = svc.controller->create_instance("dpi-full-1w",
                                                instance_config(wd, 1));
    std::uint64_t ns = 0;
    for (std::size_t i = 0; i < m; i += wd.batch) {
      std::vector<net::Packet> packets;
      for (std::size_t k = i; k < std::min(m, i + wd.batch); ++k) {
        const BasePacket& bp = base.packets[k];
        net::Packet p = bp.packet;
        p.tuple = tuple_of(bp, replay_index);
        p.push_tag(net::TagKind::kPolicyChain, base.flows[bp.flow].chain);
        packets.push_back(std::move(p));
      }
      const std::uint64_t t0 = now_ns();
      inst->process_batch(std::move(packets));
      ns += now_ns() - t0;
    }
    svc.controller->remove_instance("dpi-full-1w");
    return static_cast<double>(ns) / static_cast<double>(m);
  };
  auto ingest_pass = [&] {
    auto inst = svc.controller->create_instance("dpi-ingest-1w",
                                                instance_config(wd, 1));
    service::IngestConfig icfg;
    icfg.batch_packets = wd.batch;
    std::uint64_t delivered = 0;
    const std::uint64_t t0 = now_ns();
    {
      service::IngestPipeline pipe(
          *inst, [&](const service::BatchHandle& h) { delivered += h.size(); },
          icfg);
      for (std::size_t k = 0; k < m; ++k) {
        const BasePacket& bp = base.packets[k];
        pipe.push(base.flows[bp.flow].chain, tuple_of(bp, replay_index),
                  bp.packet.payload, k);
      }
      pipe.drain();
    }
    const double ns = static_cast<double>(now_ns() - t0);
    if (delivered != m) throw std::runtime_error("ingest: packets lost");
    svc.controller->remove_instance("dpi-ingest-1w");
    return ns / static_cast<double>(m);
  };
  PathTimes t{full_pass(), ingest_pass()};
  for (int i = 1; i < kPathRepeats; ++i) {
    t.full_ns_per_pkt = std::min(t.full_ns_per_pkt, full_pass());
    t.ingest_ns_per_pkt = std::min(t.ingest_ns_per_pkt, ingest_pass());
  }
  return t;
}

/// Capacity probe: the same stateless scan loop on 1 thread, then on one
/// thread per CPU this process may use, all at once; the ratio of aggregate
/// rates is the parallel capacity the host delivers to this process.
double parallel_capacity(const dpi::Engine& engine, const BaseTrace& base,
                         dpi::ChainId chain, std::size_t cpus, double seconds) {
  auto loop = [&](std::size_t offset) {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t n = 0;
    std::uint64_t sink = 0;
    std::size_t i = offset % base.packets.size();
    while (now_ns() < end) {
      for (int k = 0; k < 64; ++k) {
        sink += engine.scan_packet(chain, base.packets[i].packet.payload).raw_hits;
        i = i + 1 == base.packets.size() ? 0 : i + 1;
        ++n;
      }
    }
    const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
    if (sink == 0x5eed) std::fprintf(stderr, " ");
    return static_cast<double>(n) / dt;
  };
  loop(0);  // warm-up: page the engine in
  double one = loop(0);
  const std::size_t threads = std::max<std::size_t>(1, cpus);
  std::vector<double> rates(threads, 0.0);
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] { rates[t] = loop(t * 997); });
    }
  }
  one = std::max(one, loop(0));  // the better of two, around the parallel run
  double all = 0;
  for (double r : rates) all += r;
  return one > 0 ? all / one : 0.0;
}

std::uint64_t counter_sum(const dpisvc::json::Value& snapshot,
                          const std::string& suffix,
                          std::vector<double>* per_shard = nullptr) {
  std::uint64_t total = 0;
  const auto& counters = snapshot.at("counters").as_object();
  for (const auto& [name, value] : counters) {
    if (name.rfind("shard", 0) != 0) continue;
    const std::size_t dot = name.find('.');
    if (dot == std::string::npos || name.substr(dot + 1) != suffix) continue;
    const auto v = static_cast<std::uint64_t>(value.as_number());
    total += v;
    if (per_shard != nullptr) per_shard->push_back(static_cast<double>(v));
  }
  return total;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double pct(double part, double whole) {
  return whole <= 0 ? 0.0 : 100.0 * part / whole;
}

int run(const Options& opt) {
  const WorkloadDef* wdp = find_workload(opt.workload);
  if (wdp == nullptr) {
    throw std::invalid_argument("unknown workload " + opt.workload);
  }
  const WorkloadDef& wd = *wdp;
  dpisvc::set_log_level(dpisvc::LogLevel::kWarn);
  SpanLog spans(opt.trace);
  const Placement place = make_placement();

  const TenantRules rules = make_tenant_rules();
  Service svc;
  std::vector<double> setup_s;
  std::vector<double> register_s;
  std::vector<double> compile_s;
  for (int i = 0; i < kSetups; ++i) {
    svc = Service{};  // the previous controller, instance and engine go first
    svc = stand_up(rules, wd, place, spans);
    setup_s.push_back(svc.setup_s);
    register_s.push_back(svc.register_s);
    compile_s.push_back(svc.compile_s);
  }
  const auto engine = svc.instance->engine_snapshot();
  const double engine_mb =
      static_cast<double>(engine->memory_bytes() + engine->kernel_memory_bytes()) /
      1e6;
  std::fprintf(stderr, "[perfbench] %s: set-up %.3f s, engine %.1f MB, %u states\n",
               wd.name, median(setup_s), engine_mb,
               engine->num_automaton_states());

  const BaseTrace base =
      make_base_trace(wd, rules, svc.tenants, svc.chains, opt.seed);
  std::fprintf(stderr,
               "[perfbench] base trace: %zu flows, %zu packets, %.1f MB, "
               "%llu oracle matches\n",
               base.flows.size(), base.packets.size(),
               static_cast<double>(base.offered_bytes) / 1e6,
               static_cast<unsigned long long>(base.oracle_matches));

  run_on(place.driver);
  Driver driver(svc, base, spans);
  spans.set_enabled(false);
  const double warm_s = std::min(0.5, 0.1 * opt.seconds);
  const double closed_s = 0.55 * opt.seconds / kRounds;
  const double open_s = (opt.seconds - warm_s) / kRounds - closed_s;
  ClosedLoop warm;
  closed_loop(driver, wd.batch, warm_s, warm);

  const std::uint64_t rss0 = rss_bytes();
  ClosedLoop closed;
  ClosedLoop traced;
  OpenLoop open;
  std::uint64_t traced_gen_ns = 0;
  std::uint64_t traced_packets = 0;
  const std::uint64_t faults0 = minor_faults();
  const std::uint64_t packets0 = driver.submitted;
  for (int round = 0; round < kRounds; ++round) {
    closed_loop(driver, wd.batch, closed_s, closed);
    if (opt.trace) {
      spans.set_enabled(true);
      const std::uint64_t gen0 = driver.gen_ns;
      const std::uint64_t pkts0 = driver.submitted;
      closed_loop(driver, wd.batch, closed_s, traced);
      traced_gen_ns += driver.gen_ns - gen0;
      traced_packets += driver.submitted - pkts0;
      spans.set_enabled(false);
    }
    open_loop(driver, wd, open_s, open);
  }
  const std::uint64_t rss1 = rss_bytes();
  const std::size_t live_flows = svc.instance->active_flows();
  const double faults_per_kpkt =
      static_cast<double>(minor_faults() - faults0) * 1e3 /
      static_cast<double>(driver.submitted - packets0);
  run_on(place.all);

  // Verdicts against the oracle; the self-check ran on the first replay
  // with a report.
  const FlowVerdicts verdicts = driver.finish();
  const bool self_check = driver.self_check_passed();

  const service::InstanceTelemetry tel = svc.instance->telemetry();
  const net::ReassemblyStats rs = svc.instance->reassembly_stats();
  const double submitted = static_cast<double>(driver.submitted);
  const double held_pct =
      pct(static_cast<double>(tel.reassembly_held + tel.defrag_held), submitted);
  bool correct = verdicts.wrong == 0 && driver.anomalies == 0 && self_check;
  // In-order workloads must never be held: a held packet there means the
  // generator's sequence numbers are broken.
  if (wd.kind != Kind::kEvasion && held_pct != 0.0) correct = false;
  std::fprintf(stderr,
               "[perfbench] %llu packets, %llu flows checked, %llu wrong, "
               "%llu anomalies, self-check %s, held %.3f%%\n",
               static_cast<unsigned long long>(driver.submitted),
               static_cast<unsigned long long>(verdicts.checked),
               static_cast<unsigned long long>(verdicts.wrong),
               static_cast<unsigned long long>(driver.anomalies),
               self_check ? "ok" : "FAILED", held_pct);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    // Agreement rather than error share: the metric must never read 0.
    const double agreement =
        verdicts.checked == 0
            ? 0.0
            : pct(static_cast<double>(verdicts.checked - verdicts.wrong),
                  static_cast<double>(verdicts.checked));
    metrics = {
        {"throughput_pps", quiet_rate(closed.pps), "1/s"},
        {"goodput_mbps", quiet_rate(closed.mbps), "Mbit/s"},
        {"latency_p50_us", quiet_time(open.p50_us), "us"},
        {"latency_p99_us", quiet_time(open.p99_us), "us"},
        {"verdict_agreement_pct", agreement, "%"},
        {"cpu_us_per_pkt", quiet_time(closed.cpu_us_per_pkt), "us"},
        {"setup_s", median(setup_s), "s"},
        {"engine_mb", engine_mb, "MB"},
    };
  } else {
    const std::uint64_t layer_replay = driver.submitted / base.packets.size() + 2;
    SpanLog replay_spans(true);
    const Replay rp =
        replay_layers(svc, base, replay_spans, layer_replay, kReplayPackets);
    SpanLog no_spans(false);
    double bare_ns_per_pkt = 0;
    for (int i = 0; i < kPathRepeats; ++i) {
      const double ns =
          replay_layers(svc, base, no_spans, layer_replay, kReplayPackets)
              .ns_per_pkt;
      bare_ns_per_pkt = i == 0 ? ns : std::min(bare_ns_per_pkt, ns);
    }
    const PathTimes paths =
        time_paths(svc, base, wd, layer_replay, kReplayPackets);
    const double capacity =
        parallel_capacity(*engine, base, svc.chains.a, place.all.size(), 0.3);

    const dpisvc::json::Value snap = svc.instance->metrics().snapshot();
    std::vector<double> shard_packets;
    counter_sum(snap, "packets", &shard_packets);
    double skew = 0;
    if (!shard_packets.empty()) {
      double sum = 0;
      double max = 0;
      for (double v : shard_packets) {
        sum += v;
        max = std::max(max, v);
      }
      skew = sum > 0 ? max / (sum / static_cast<double>(shard_packets.size())) : 0;
    }
    const double regex_evals = static_cast<double>(counter_sum(snap, "regex_evals"));
    const double regex_matches =
        static_cast<double>(counter_sum(snap, "regex_matches"));
    const dpisvc::obs::Histogram* wait =
        svc.instance->metrics().find_histogram("pool.queue_wait_ns");

    const double m = static_cast<double>(rp.packets);
    auto self = [&](SpanLog::Name n) {
      return static_cast<double>(replay_spans.self_ns(n));
    };
    auto per = [](double total, double n) { return n <= 0 ? 0.0 : total / n; };
    const double kb_scanned = static_cast<double>(rp.scanned_bytes) / 1024.0;
    std::vector<double> batch_us = driver.batch_us;

    metrics = {
        {"service.batch_us_p50", quantile(batch_us, 0.5), "us"},
        {"service.pool_wait_us_p50",
         wait != nullptr && wait->count() > 0 ? wait->percentile(0.5) / 1e3 : 0.0,
         "us"},
        {"service.cores_used",
         static_cast<double>(closed.cpu_ns) / static_cast<double>(closed.wall_ns),
         "cores"},
        {"service.shard_skew", skew, "ratio"},
        {"service.glue_ns_per_pkt", paths.full_ns_per_pkt - bare_ns_per_pkt, "ns"},
        {"service.scan_only_ratio",
         per(paths.full_ns_per_pkt, paths.ingest_ns_per_pkt), "ratio"},
        {"service.state_kb_per_flow",
         live_flows == 0 ? 0.0
                         : (static_cast<double>(rss1) - static_cast<double>(rss0)) /
                               1024.0 / static_cast<double>(live_flows),
         "KB"},
        {"service.minor_faults_per_kpkt", faults_per_kpkt, "1/kpkt"},
        {"service.register_s", median(register_s), "s"},
        {"service.parallel_capacity", capacity, "cores"},
        {"dpi.compile_s", median(compile_s), "s"},
        {"net.defrag_ns_per_pkt",
         per(self(SpanLog::kDefragFeed) + self(SpanLog::kDefragTick), m), "ns"},
        {"net.reassembly_ns_per_pkt", per(self(SpanLog::kReassemblyFeed), m), "ns"},
        {"net.held_pct", held_pct, "%"},
        {"net.duplicate_pct",
         pct(static_cast<double>(rs.duplicate_bytes),
             static_cast<double>(driver.offered_bytes)),
         "%"},
        {"net.unscanned_pct", rp.unscanned_pct, "%"},
        {"net.encode_ns_per_report",
         per(self(SpanLog::kEncodeReport), static_cast<double>(rp.reports)), "ns"},
        {"net.decode_ns_per_report",
         per(static_cast<double>(spans.total_ns(SpanLog::kDecodeReport)),
             static_cast<double>(spans.count(SpanLog::kDecodeReport))),
         "ns"},
        {"net.report_bytes_mean",
         per(static_cast<double>(driver.report_bytes),
             static_cast<double>(driver.matched_packets)),
         "B"},
        {"dpi.scan_ns_per_kb", per(self(SpanLog::kScanPacket), kb_scanned), "ns/KB"},
        {"dpi.flowtable_ns_per_pkt",
         per(self(SpanLog::kFlowLookup) + self(SpanLog::kFlowUpdate), m), "ns"},
        {"dpi.match_pkt_pct",
         pct(static_cast<double>(driver.matched_packets), submitted), "%"},
        {"dpi.raw_hits_per_kb",
         per(static_cast<double>(tel.raw_hits),
             static_cast<double>(tel.bytes) / 1024.0),
         "1/KB"},
        {"dpi.flow_evictions", static_cast<double>(tel.flow_evictions), "count"},
        {"ac.walk_ns_per_kb", per(self(SpanLog::kTraverseOnly), kb_scanned), "ns/KB"},
        {"ac.states", static_cast<double>(engine->num_automaton_states()), "count"},
        {"regex.evals_per_kpkt", per(regex_evals, submitted / 1e3), "1/kpkt"},
        {"regex.match_ratio", per(regex_matches, regex_evals), "ratio"},
        {"mbox.verdict_ns_per_pkt",
         per(static_cast<double>(spans.total_ns(SpanLog::kApplyVerdicts)),
             static_cast<double>(spans.count(SpanLog::kApplyVerdicts))),
         "ns"},
        {"mbox.entries_per_match_pkt",
         per(static_cast<double>(driver.entries_delivered),
             static_cast<double>(driver.matched_packets)),
         "count"},
        {"workload.gen_lag_us_p99", quantile(open.lag_us, 0.99), "us"},
        {"workload.gen_ns_per_pkt",
         per(static_cast<double>(traced_gen_ns), static_cast<double>(traced_packets)),
         "ns"},
        {"trace.overhead_pct",
         pct(quiet_rate(closed.pps) - quiet_rate(traced.pps), quiet_rate(closed.pps)),
         "%"},
    };
    const std::string stem = opt.out_dir + "/spans-" + wd.name + "-seed" +
                             std::to_string(opt.seed);
    if (!spans.write_tsv(stem + "-driver.tsv") ||
        !replay_spans.write_tsv(stem + "-replay.tsv")) {
      std::fprintf(stderr, "[perfbench] could not write spans under %s\n",
                   opt.out_dir.c_str());
    }
  }
  print_result(correct, verdicts.checked, verdicts.wrong, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpibench: %s\n", e.what());
    return 1;
  }
}
