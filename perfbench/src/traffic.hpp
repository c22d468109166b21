// Tenants, workload definitions, the stream-valid traffic generator, and the
// per-tenant oracle of the DPI-service benchmark.
//
// A workload's packets come from one *base trace* generated from the seed.
// The driver replays the base trace as often as the run needs, each replay on
// fresh five-tuples, so every replayed flow is a new TCP connection with its
// own ISN-anchored sequence space and the oracle's expectation for a base
// flow holds for each of its replays.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "dpi/types.hpp"
#include "mbox/middlebox.hpp"
#include "net/packet.hpp"

namespace perfbench {

using dpisvc::Bytes;
namespace dpi = dpisvc::dpi;
namespace mbox = dpisvc::mbox;
namespace net = dpisvc::net;

/// Middlebox ids of the three tenants (the controller's registration ids).
inline constexpr dpi::MiddleboxId kIds = 1;   ///< stateful IDS
inline constexpr dpi::MiddleboxId kL7fw = 2;  ///< stateless L7 firewall
inline constexpr dpi::MiddleboxId kAv = 3;    ///< stateful antivirus
inline constexpr std::size_t kNumTenants = 3;

/// Rule sets of the tenants. Seed-independent: every run compiles the same
/// engine, so engine size and set-up time compare across runs and PRs.
struct TenantRules {
  std::vector<std::string> ids_exact;
  std::vector<std::string> ids_regex;
  std::vector<std::string> l7fw_exact;
  std::vector<std::string> av_exact;
  /// Strings the web generator plants: literals of every tenant plus one
  /// instance of each IDS regex.
  std::vector<std::string> plantable;
  /// The 64 target patterns of the attack workload.
  std::vector<std::string> attack_targets;
};

TenantRules make_tenant_rules();

/// A benchmark tenant. Service-mode results reach it through
/// apply_report_entries(); every hit is folded into the digest the driver
/// points it at, so per-hit state stays bounded however long the run (unlike
/// mbox::Ids, which keeps one Alert per hit).
class Tenant : public mbox::Middlebox {
 public:
  Tenant(dpi::MiddleboxProfile profile, mbox::Verdict verdict);

  mbox::Verdict rule_verdict() const noexcept { return verdict_; }

  /// Where on_rule_hit folds the hits of the packet being applied.
  std::uint64_t* digest = nullptr;
  /// Delivery index of that packet within its flow (stateless positions are
  /// packet-relative, so the digest keys them by packet).
  std::uint32_t packet_index = 0;

 protected:
  void on_rule_hit(const mbox::RuleSpec& rule, const net::MatchEntry& entry,
                   const net::Packet& data) override;

 private:
  mbox::Verdict verdict_;
};

/// Builds ids, l7fw and av (index = id - 1) with their rules added.
std::vector<std::unique_ptr<Tenant>> make_tenants(const TenantRules& rules);

/// Digest key of one match: tenant, packet index (0 for stateful tenants,
/// whose positions are flow-relative), pattern and end position.
std::uint64_t match_key(dpi::MiddleboxId tenant, std::uint32_t packet_index,
                        std::uint32_t pattern, std::uint64_t position);
/// Digest key of a non-pass verdict on one packet.
std::uint64_t verdict_key(dpi::MiddleboxId tenant, std::uint32_t packet_index,
                          mbox::Verdict verdict);

/// Policy chains as the controller numbered them.
struct Chains {
  dpi::ChainId a = 0;  ///< {ids, l7fw, av}
  dpi::ChainId b = 0;  ///< {l7fw}
  dpi::ChainId c = 0;  ///< {ids, av}: stateful tenants only
};

enum class Kind : std::uint8_t { kWeb, kAttack, kEvasion };

struct WorkloadDef {
  const char* name;
  Kind kind;
  std::size_t workers;
  bool dedicated;            ///< MCA² dedicated instance (compressed automaton)
  std::size_t batch;         ///< packets per process_batch call
  double open_loop_pps;      ///< offered rate of the latency phase
  std::size_t flows;         ///< flows per base trace
  std::size_t concurrency;   ///< flows in progress at once
  std::size_t min_packets;   ///< data packets per in-order flow
  std::size_t max_packets;
  std::size_t min_segment;   ///< payload bytes per in-order segment
  std::size_t max_segment;
};

/// nullptr for an unknown name.
const WorkloadDef* find_workload(const std::string& name);

struct BaseFlow {
  dpi::ChainId chain = 0;
  /// In-order flows attribute every oracle match to the packet carrying its
  /// bytes; adversarial flows are compared once, when complete.
  bool in_order = true;
  std::uint16_t src_port = 0;
  std::uint32_t packets = 0;
  std::uint64_t stream_bytes = 0;
};

struct BasePacket {
  std::uint32_t flow = 0;
  std::uint32_t index = 0;  ///< delivery index within the flow
  /// Everything but the five-tuple and the chain tag, which each replay sets.
  net::Packet packet;
  /// Stream bytes this packet delivers for the first time.
  std::uint32_t unique_bytes = 0;
  /// Oracle digest of the matches and verdicts this packet must deliver.
  std::uint64_t expect = 0;
};

struct BaseTrace {
  std::vector<BaseFlow> flows;
  std::vector<BasePacket> packets;  ///< delivery order
  std::uint64_t offered_bytes = 0;  ///< payload bytes, duplicates included
  std::uint64_t unique_bytes = 0;
  std::uint64_t oracle_matches = 0;
  std::uint32_t max_run = 0;        ///< longest oracle match run
  std::uint64_t max_stream = 0;     ///< longest flow stream, bytes
};

/// Generates the base trace and computes its oracle expectations with
/// tenant-only engines. Throws when a flow would break the report codec's
/// limits (stream >= 2^24 bytes or a match run > 256).
BaseTrace make_base_trace(const WorkloadDef& workload, const TenantRules& rules,
                          std::vector<std::unique_ptr<Tenant>>& oracles,
                          const Chains& chains, std::uint64_t seed);

/// Tenants on a chain, by id.
std::vector<dpi::MiddleboxId> chain_members(const Chains& chains,
                                            dpi::ChainId chain);

/// The five-tuple of base flow `flow` in replay `replay`: unique per
/// (replay, flow), with the source address drawn from a bijective mix so
/// shard placement sees well-spread tuples.
net::FiveTuple replay_tuple(std::uint64_t replay, std::uint32_t flow,
                            std::size_t num_flows, std::uint16_t src_port);

}  // namespace perfbench
