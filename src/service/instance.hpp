// DPI service instance (§5, §6.1).
//
// An instance holds a compiled dpi::Engine (swapped atomically when the
// controller pushes a new pattern-set version), a flow table for stateful
// chains, and the result-emission logic of §4.2:
//
//  - ResultMode::kServiceHeader — match results are attached to the data
//    packet as an NSH-like layer in front of the payload (§4.2, option 1);
//  - ResultMode::kDedicatedPacket — results travel in a separate packet
//    emitted right after the data packet, which is what the paper's
//    prototype does ("we decided to send match information ... as a
//    separate packet since POX only implements OpenFlow 1.0");
//  - in both modes the data packet's ECN bit marks "has matches" (§6.1),
//    and "a packet with no matches is always forwarded as is without any
//    modification" (§4.2).
//
// The instance also exports the telemetry MCA² needs (§4.3.1) and supports
// per-flow state export/import for flow migration (§4.3).
//
// Data path: one per-shard routine of three stages, applied to windows of at
// most kMaxRun packets —
//   normalize  policy tag, IPv4 defrag, TCP reassembly, decompress-once;
//   scan       same-chain runs through the engine's interleaved batch walk
//              (the only data-path code that calls the engine or touches the
//              flow table);
//   emit       report encode, ECN mark, service header or result packet.
// process_batch() runs the routine on each shard's bucket, process() on a
// one-packet bucket. scan(), scan_batch() and the IngestPipeline carry
// payloads that are already normalized and enter at the scan stage.
//
// Telemetry has one book per owner: the shard<i>.* counters of the metrics
// registry hold everything the instance counts per packet (telemetry(),
// stats_json() and TELEMETRY_REPORT read them), and each shard's
// FlowReassembler / IpDefragmenter stats hold what those two count.
//
// Concurrency (§6 scaling): the instance is sharded. Each shard owns a mutex,
// an engine snapshot (std::shared_ptr<const dpi::Engine>), a FlowTable, a TCP
// reassembler and a defragmenter. A packet's shard is
// FiveTuple::canonical() hash % num_workers, so both directions of a flow —
// and therefore its stateful cursor — belong to exactly one shard and no
// cross-shard FlowTable locking ever happens. The batched entry points
// partition their input by shard and dispatch one job per shard to the
// ScanPool (worker i ↔ shard i), which preserves per-flow packet order for
// any worker count. The pool's per-worker job rings are fixed-capacity
// (InstanceConfig::queue_capacity), so a stalled shard surfaces as
// backpressure — counted through the ingest.backpressure.* instruments —
// instead of unbounded queue growth. Control-plane operations (engine push,
// migration) take shards one at a time — they drain the affected shard, not
// the whole data plane. Lock order: control_mu_ before any shard mutex; never
// two shard mutexes at once.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_safety.hpp"
#include "common/timer.hpp"
#include "dpi/engine.hpp"
#include "dpi/flow_table.hpp"
#include "json/json.hpp"
#include "net/defrag.hpp"
#include "net/packet.hpp"
#include "net/reassembly.hpp"
#include "net/result.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/scan_pool.hpp"

namespace dpisvc::service {

/// service_path_id value marking a dedicated result packet; middleboxes use
/// it to distinguish results from data.
inline constexpr std::uint32_t kResultServicePathId = 0xD715ECFE;

/// Correlation key tying a dedicated result packet to its data packet.
inline std::uint64_t packet_ref_of(const net::Packet& packet) noexcept {
  return packet.tuple.hash() ^
         (static_cast<std::uint64_t>(packet.ip_id) << 48);
}

enum class ResultMode {
  kServiceHeader,
  kDedicatedPacket,
  /// §4.2 option 3 ("Big Tap"-style): for chains whose middleboxes are all
  /// read-only, the data packet skips the middlebox path entirely (its
  /// steering tag is popped so it heads straight to the egress) and only
  /// the result packet — produced only when there are matches — follows
  /// the chain to the middleboxes. "As most packets do not contain matches
  /// at all, this option may dramatically reduce traffic load over the
  /// middlebox service chain." Chains with non-read-only members fall back
  /// to dedicated result packets.
  kResultOnly,
};

struct InstanceConfig {
  ResultMode result_mode = ResultMode::kDedicatedPacket;
  net::ReportCodec codec = net::ReportCodec::kUniform6;
  /// Dedicated MCA² instance: tuned for heavy/adversarial traffic (the
  /// controller compiles its engine without the hot kernel).
  bool dedicated = false;
  /// Decompress-once (§1): gzip/zlib payloads are inflated before the scan
  /// so the heavy decompression runs a single time for all middleboxes on
  /// the chain, instead of once per middlebox. Packets that fail to
  /// decompress are scanned in their raw form.
  bool decompress_payloads = false;
  /// Bound on per-packet decompressed size (bomb protection).
  std::size_t max_decompressed = 1 << 20;
  /// TCP stream reassembly before scanning (§7's "session reconstruction"):
  /// out-of-order segments are buffered and the scan consumes in-order
  /// stream chunks, closing the segmentation-evasion hole. Only affects TCP
  /// packets on known chains.
  bool reassemble_tcp = false;
  /// Reassembly policy knobs (overlap policy, history window, buffering and
  /// stream-table bounds) applied to every shard's FlowReassembler.
  net::ReassemblyConfig reassembly;
  /// IPv4 defragmentation in front of reassembly: fragments are buffered and
  /// the scan path sees whole datagrams, closing the fragmentation-evasion
  /// hole. Only affects fragments of known chains.
  bool defragment_ip = false;
  /// Defragmenter bounds and overlap policy, applied per shard.
  net::DefragConfig defrag;
  /// Deployment group this instance serves (§4.3: "deploy instances that
  /// support only one group and not all the policy chains in the system");
  /// empty = all chains. The controller compiles group-restricted engines.
  std::string group;
  /// Aggregate flow-table capacity, split evenly across shards.
  std::size_t max_flows = 1 << 20;
  /// Data-plane shards / scan-pool workers. 1 (the default) spawns no
  /// threads: scans run inline on the caller, preserving the pre-sharding
  /// single-threaded behavior exactly.
  std::size_t num_workers = 1;
  /// Per-worker job-ring capacity (slots). Bounds the fabric→shard handoff:
  /// a stalled shard holds at most this many queued jobs (the old pool's
  /// deque grew without limit), after which producers block or shed per
  /// `overload`.
  std::size_t queue_capacity = 1024;
  /// Producer behavior on a full shard ring (asynchronous submissions only;
  /// the synchronous scan_batch()/process_batch() dispatches always block —
  /// their callers wait for completion regardless).
  OverloadPolicy overload = OverloadPolicy::kBlock;
  /// ScanTrace ring capacity (structured per-packet event records for
  /// debugging); 0 — the default — disables tracing entirely.
  std::size_t trace_capacity = 0;
};

/// Counters exported to the DPI controller as stress telemetry (§4.3.1),
/// summed from the shard<i>.* registry counters.
struct InstanceTelemetry {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t raw_hits = 0;        ///< accepting-state hits during scans
  std::uint64_t match_packets = 0;   ///< packets with at least one match
  std::uint64_t result_bytes = 0;    ///< encoded report bytes emitted
  std::uint64_t pass_through = 0;    ///< packets with no/unknown chain tag
  std::uint64_t decompressed_packets = 0;  ///< payloads inflated before scan
  std::uint64_t decompressed_bytes = 0;    ///< bytes produced by inflation
  std::uint64_t reassembly_held = 0;       ///< packets that released no chunk
  std::uint64_t defrag_held = 0;           ///< fragments awaiting completion
  /// Live stateful cursors lost to FlowTable LRU eviction: the evicted
  /// flow's next packet resumes from the DFA root, so patterns straddling
  /// the eviction point are missed. Non-zero means max_flows is too small
  /// for the offered flow concurrency.
  std::uint64_t flow_evictions = 0;
  /// Time spent in the scan stage (the shard<i>.scan_ns histogram sums).
  double busy_seconds = 0;

  /// The MCA² heavy-traffic signal: accepting-state hits per scanned byte.
  double hits_per_byte() const noexcept {
    return bytes == 0 ? 0.0
                      : static_cast<double>(raw_hits) /
                            static_cast<double>(bytes);
  }
};

/// Per-policy-chain counters; the controller uses these to decide *which*
/// traffic to migrate to dedicated instances under attack (§4.3.1).
struct ChainTelemetry {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t raw_hits = 0;

  double hits_per_byte() const noexcept {
    return bytes == 0 ? 0.0
                      : static_cast<double>(raw_hits) /
                            static_cast<double>(bytes);
  }
};

struct ProcessOutput {
  net::Packet data;
  /// Dedicated result packet (kDedicatedPacket mode, only when matched).
  std::optional<net::Packet> result;
  bool had_matches = false;
};

/// One packet of a scan_batch() submission. The payload view must stay
/// valid until the batch call returns (the ingest pipeline points it into a
/// batch arena, so the bytes are written once at ingress and only ever
/// referenced afterwards).
struct ScanItem {
  dpi::ChainId chain = 0;
  net::FiveTuple flow;
  BytesView payload;
};

/// Batch-granular ingest instruments registered on the instance's metrics
/// registry. The IngestPipeline records into these; they live here so
/// dpisvc_stats finds every backpressure signal in one snapshot.
struct IngestInstruments {
  obs::Counter* shed = nullptr;            ///< packets dropped under kShed
  obs::Counter* blocked = nullptr;         ///< ring-full producer stalls
  obs::Histogram* batch_packets = nullptr; ///< packets per flushed batch
  obs::Histogram* batch_bytes = nullptr;   ///< payload bytes per batch
  obs::Gauge* batches_in_flight = nullptr; ///< batches not yet delivered
};

/// The first exception any pool job of one dispatch (or ingest batch)
/// threw. A job must not unwind into a pool worker — that terminates the
/// process — nor skip its completion signal, which would hang the waiter;
/// it runs its body through guard() instead, and the dispatching thread
/// takes the exception once every job is done.
class JobError {
 public:
  /// Runs body(), keeping the first exception any guard() call sees.
  template <typename Body>
  void guard(Body&& body) noexcept {
    try {
      body();
    } catch (...) {
      if (!taken_.test_and_set(std::memory_order_relaxed)) {
        first_ = std::current_exception();
      }
    }
  }

  /// Returns the kept exception (null when every job succeeded) and re-arms.
  /// Call only after all guarded jobs completed: the completion signal
  /// (dispatch latch, batch pending count) orders the capture before this.
  std::exception_ptr take() noexcept {
    taken_.clear(std::memory_order_relaxed);
    return std::exchange(first_, nullptr);
  }

 private:
  std::atomic_flag taken_;
  std::exception_ptr first_;
};

class DpiInstance {
 public:
  /// Packets per stage window, and the longest same-chain scan run handed to
  /// the engine's interleaved walk.
  static constexpr std::size_t kMaxRun = 32;

  explicit DpiInstance(std::string name, InstanceConfig config = {});

  const std::string& instance_name() const noexcept { return name_; }
  const InstanceConfig& config() const noexcept { return config_; }
  std::size_t num_shards() const noexcept { return shards_.size(); }

  /// Installs a compiled engine (controller push). Flow tables are cleared:
  /// DFA state ids are only meaningful within one compiled engine, so
  /// stored cursors cannot survive a recompile; affected stateful flows
  /// restart scanning from the root at their next packet. The swap proceeds
  /// shard by shard — scanning continues on shards not yet swapped, and a
  /// shard only ever sees a consistent (engine, flow table) pair.
  void load_engine(std::shared_ptr<const dpi::Engine> engine,
                   std::uint64_t version);

  std::uint64_t engine_version() const;
  bool has_engine() const;
  /// Pins the current engine so callers can inspect it without racing a
  /// concurrent load_engine() dropping the last reference.
  std::shared_ptr<const dpi::Engine> engine_snapshot() const;
  const dpi::Engine* engine() const { return engine_snapshot().get(); }

  /// Full data-plane processing of one packet: the three stages on a
  /// one-packet bucket. Packets without a known chain tag pass through
  /// untouched. Thread-safe; packets of distinct shards process in
  /// parallel.
  ProcessOutput process(net::Packet packet);

  /// Batched counterpart of process(): partitions the packets by shard and
  /// runs the stages on each shard's bucket on the pool workers — one
  /// shard-lock acquisition and one pool job per shard, not per packet.
  /// Outputs come back in submission order, and per-flow processing order
  /// is preserved, so the outputs are identical to calling process() on
  /// each packet in turn. Rethrows the first exception a bucket threw once
  /// every bucket is done.
  std::vector<ProcessOutput> process_batch(std::vector<net::Packet> packets);

  /// Scans one normalized payload (the scan stage alone): no packet object,
  /// still updates telemetry and flow state. Thread-safe.
  dpi::ScanResult scan(dpi::ChainId chain, const net::FiveTuple& flow,
                       BytesView payload);

  /// Batched scan stage: partitions the items by shard and scans each
  /// shard's share on its pool worker (inline when num_workers == 1).
  /// Results are returned in submission order. Packets of one flow always
  /// land on the same shard and are scanned in submission order, so the
  /// match sets are identical for every worker count. Rethrows the first
  /// exception a bucket threw (e.g. an unknown chain) once every bucket is
  /// done.
  std::vector<dpi::ScanResult> scan_batch(const std::vector<ScanItem>& items);

  /// Scans `count` items selected by `indices` — all of which must belong
  /// to shard `shard` — under that shard's lock, writing each result to
  /// out[indices[k]]. scan_batch() jobs and the ingest pipeline's per-shard
  /// jobs call this.
  void scan_bucket(std::size_t shard, const ScanItem* items,
                   const std::uint32_t* indices, std::size_t count,
                   dpi::ScanResult* out);

  /// Shard owning `flow` (canonical-hash placement). Public so the ingest
  /// pipeline can partition batches and tests can target — or deliberately
  /// stall — a specific shard's worker.
  std::size_t shard_of_flow(const net::FiveTuple& flow) const noexcept {
    return static_cast<std::size_t>(flow.canonical().hash()) % shards_.size();
  }

  /// The data-plane worker pool. The ingest pipeline submits its per-shard
  /// batch jobs here; job order per worker is FIFO, which extends the
  /// per-flow ordering guarantee across batches.
  ScanPool& scan_pool() noexcept { return pool_; }

  /// Batch-granular ingest instruments.
  const IngestInstruments& ingest_instruments() const noexcept {
    return ingest_obs_;
  }

  /// Sums of the shard<i>.* registry counters. Lock-free: each counter only
  /// grows, so successive reads never decrease; consumers derive windows by
  /// differencing.
  InstanceTelemetry telemetry() const;
  /// Per-chain counters, sampled under the shard locks.
  std::map<dpi::ChainId, ChainTelemetry> chain_telemetry() const;

  /// Obs layer: per-shard instruments (shard<i>.* counters, scan-latency
  /// and pool queue-wait histograms) and the optional scan trace ring.
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  const obs::ScanTrace& trace() const noexcept { return trace_; }

  /// Aggregate reassembly counters summed over every shard's
  /// FlowReassembler (ambiguity, eviction, and teardown counts included).
  net::ReassemblyStats reassembly_stats() const;

  /// Aggregate defragmentation counters summed over every shard.
  net::DefragStats defrag_stats() const;

  /// Full machine-readable state: instance identity, engine version,
  /// aggregated telemetry counters, metrics snapshot, and — when tracing is
  /// enabled — the trace ring. This is the payload TELEMETRY_REPORT carries
  /// to the controller and dpisvc_stats renders.
  json::Value stats_json() const;

  std::size_t active_flows() const;

  /// All flows with live scan state, most recently used first within each
  /// shard; the controller walks this during failover to migrate a dead
  /// instance's surviving state (§4.3).
  std::vector<net::FiveTuple> active_flow_keys() const;

  // --- flow migration (§4.3) ----------------------------------------------

  /// Removes and returns the flow's scan state for hand-off to another
  /// instance. Invalid cursor if the flow is unknown. Only the owning shard
  /// is touched; the rest of the data plane keeps scanning.
  dpi::FlowCursor export_flow(const net::FiveTuple& flow);

  /// Installs migrated flow state (engine versions must match between the
  /// source and target instance for the DFA state to be meaningful; the
  /// controller guarantees this by syncing instances first).
  void import_flow(const net::FiveTuple& flow, const dpi::FlowCursor& cursor);

  /// Bulk migration: drains every shard's flow table (shard at a time) and
  /// returns all (flow, cursor) pairs. Failover uses this instead of
  /// per-flow export round trips.
  std::vector<std::pair<net::FiveTuple, dpi::FlowCursor>> export_all_flows();

  /// Bulk counterpart of import_flow(); entries are re-homed onto this
  /// instance's own shards.
  void import_flows(
      const std::vector<std::pair<net::FiveTuple, dpi::FlowCursor>>& flows);

 private:
  /// What the instance counts per packet; each is one shard<i>.<name>
  /// registry counter (names in instance.cpp).
  enum Count : std::size_t {
    kPackets,
    kBytes,
    kRawHits,
    kAnchorHits,
    kRegexEvals,
    kRegexMatches,
    kMatchPackets,
    kResultBytes,
    kPassThrough,
    kDecompressedPackets,
    kDecompressedBytes,
    kReassemblyHeld,
    kDefragHeld,
    kFlowEvictions,
    kNumCounts,
  };

  /// What the stages counted over one window; account() publishes it.
  struct Tally {
    /// One scan run: its per-chain counts and scan_ns samples.
    struct Run {
      dpi::ChainId chain;
      std::uint32_t packets;
      std::uint64_t bytes;
      std::uint64_t raw_hits;
      std::uint64_t ns;
    };
    std::array<std::uint64_t, kNumCounts> n{};
    std::array<Run, kMaxRun> runs;
    std::size_t num_runs = 0;
  };

  /// Stage buffers of one shard, reused window after window.
  struct Staging {
    std::size_t size = 0;  ///< packets normalize handed to the scan stage
    std::array<std::uint32_t, kMaxRun> packet{};  ///< their caller indices
    std::array<ScanItem, kMaxRun> items;
    std::array<dpi::ScanResult, kMaxRun> results;
    std::array<Bytes, kMaxRun> bytes;  ///< reassembled or inflated payloads
    /// One scan run: its payloads, its flows' cursors, the engine's results.
    std::vector<BytesView> payloads;
    std::vector<dpi::FlowCursor> cursors;
    std::vector<dpi::ScanResult> run_results;
  };

  /// Everything a data-plane worker touches, under one mutex. Flows are
  /// owned by exactly one shard (canonical-hash placement), so shard
  /// mutexes never nest. The instrument pointers and `index` are written
  /// once at construction (before any worker exists) and read-only
  /// afterwards, so they stay unguarded; everything the stages mutate is
  /// GUARDED_BY(mu).
  struct Shard {
    mutable Mutex mu;
    std::shared_ptr<const dpi::Engine> engine DPISVC_GUARDED_BY(mu);
    dpi::FlowTable flows DPISVC_GUARDED_BY(mu);
    net::FlowReassembler reassembler DPISVC_GUARDED_BY(mu);
    net::IpDefragmenter defrag DPISVC_GUARDED_BY(mu);
    std::map<dpi::ChainId, ChainTelemetry> chain_telemetry
        DPISVC_GUARDED_BY(mu);
    Staging staging DPISVC_GUARDED_BY(mu);
    std::array<obs::Counter*, kNumCounts> counters{};
    obs::Histogram* scan_ns = nullptr;
    obs::Gauge* flow_occupancy = nullptr;
    std::uint32_t index = 0;

    Shard(std::size_t max_flows, const net::ReassemblyConfig& reassembly,
          const net::DefragConfig& defrag_config)
        : flows(max_flows), reassembler(reassembly), defrag(defrag_config) {}
  };

  Shard& shard_of(const net::FiveTuple& flow) noexcept {
    return *shards_[shard_of_flow(flow)];
  }

  /// The per-shard routine: normalize → scan → emit → account over windows
  /// of at most kMaxRun packets. packets[indices[k]] all belong to shard
  /// `shard`; each output lands at out[indices[k]].
  void process_bucket(std::size_t shard, net::Packet* packets,
                      const std::uint32_t* indices, std::size_t count,
                      ProcessOutput* out);
  /// Normalize stage: stages the window's scannable packets in
  /// shard.staging; the rest (no known chain, held fragment or segment) get
  /// their output here, unchanged.
  void normalize(Shard& shard, net::Packet* packets,
                 const std::uint32_t* indices, std::size_t count,
                 ProcessOutput* out, Tally& tally) DPISVC_REQUIRES(shard.mu);
  /// Scan stage over count <= kMaxRun items: the only data-path code that
  /// calls the engine or touches the flow table.
  void scan_window(Shard& shard, const ScanItem* items,
                   const std::uint32_t* indices, std::size_t count,
                   dpi::ScanResult* out, Tally& tally)
      DPISVC_REQUIRES(shard.mu);
  /// Emit stage for the packets staged by normalize().
  void emit(Shard& shard, net::Packet* packets, ProcessOutput* out,
            Tally& tally) DPISVC_REQUIRES(shard.mu);
  /// The one writer of the shard<i>.* counters and the per-chain map.
  void account(Shard& shard, const Tally& tally) DPISVC_REQUIRES(shard.mu);
  /// Runs bucket(shard, indices, count) for every shard's non-empty share
  /// of an n-item batch on the pool, then rethrows the first exception.
  template <typename FlowOf, typename Bucket>
  void run_buckets(std::size_t n, FlowOf&& flow_of, Bucket&& bucket);
  std::optional<Bytes> maybe_decompress(BytesView payload) const;
  static ScanPool::Instruments make_pool_instruments(
      obs::MetricsRegistry& metrics, const InstanceConfig& config);

  std::string name_;
  InstanceConfig config_;
  /// Declared before shards_/pool_: shard instruments and the pool's
  /// queue-wait histogram point into the registry.
  obs::MetricsRegistry metrics_;
  obs::ScanTrace trace_;
  /// Control-plane lock: engine pushes and the canonical engine/version
  /// snapshot. Acquired before any shard mutex, never after one.
  mutable Mutex control_mu_;
  std::shared_ptr<const dpi::Engine> engine_ DPISVC_GUARDED_BY(control_mu_);
  std::uint64_t engine_version_ DPISVC_GUARDED_BY(control_mu_) = 0;
  IngestInstruments ingest_obs_;
  /// Declared before pool_ so workers never outlive the shards they touch.
  std::vector<std::unique_ptr<Shard>> shards_;
  ScanPool pool_;
};

/// Stable counting sort of a batch by owning shard: bucket(s) lists, in
/// submission order, the indices of the items shard s owns. Stability is
/// what preserves per-flow packet order through the partition. The vectors
/// keep their capacity, so steady-state partitioning allocates nothing.
class ShardPartition {
 public:
  /// flow_of(i) names item i's five-tuple, i in [0, n).
  template <typename FlowOf>
  void build(const DpiInstance& instance, std::size_t n, FlowOf&& flow_of) {
    const std::size_t shards = instance.num_shards();
    shard_of_.resize(n);
    offsets_.assign(shards + 1, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      shard_of_[i] =
          static_cast<std::uint32_t>(instance.shard_of_flow(flow_of(i)));
      ++offsets_[shard_of_[i] + 1];
    }
    for (std::size_t s = 0; s < shards; ++s) offsets_[s + 1] += offsets_[s];
    cursor_.assign(offsets_.begin(), offsets_.end() - 1);
    order_.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) order_[cursor_[shard_of_[i]]++] = i;
  }

  const std::uint32_t* bucket(std::size_t shard) const noexcept {
    return order_.data() + offsets_[shard];
  }
  std::size_t size(std::size_t shard) const noexcept {
    return offsets_[shard + 1] - offsets_[shard];
  }

 private:
  std::vector<std::uint32_t> shard_of_;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> cursor_;
  std::vector<std::uint32_t> order_;
};

}  // namespace dpisvc::service
