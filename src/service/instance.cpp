#include "service/instance.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <type_traits>

#include "common/invariant.hpp"
#include "common/logging.hpp"
#include "compress/inflate.hpp"

namespace dpisvc::service {

namespace {

/// Registry names of DpiInstance::Count, in enum order: shard<i>.<name>.
constexpr const char* kCountNames[] = {
    "packets",       "bytes",         "raw_hits",
    "anchor_hits",   "regex_evals",   "regex_matches",
    "match_packets", "result_bytes",  "pass_through",
    "decompressed_packets", "decompressed_bytes", "reassembly_held",
    "defrag_held",   "flow_evictions",
};

/// Positions 0..kMaxRun-1: a staged window's items are dense.
constexpr auto kIdentity = [] {
  std::array<std::uint32_t, DpiInstance::kMaxRun> a{};
  for (std::uint32_t i = 0; i < a.size(); ++i) a[i] = i;
  return a;
}();

/// The resume state of a stateless scan.
const dpi::FlowCursor kNoCursor{};

net::MatchReport build_report(dpi::ChainId chain, std::uint64_t packet_ref,
                              const dpi::ScanResult& scan) {
  net::MatchReport report;
  report.policy_chain_id = chain;
  report.packet_ref = packet_ref;
  for (const dpi::MiddleboxMatches& m : scan.matches) {
    if (m.entries.empty()) continue;
    report.sections.push_back(net::MiddleboxSection{m.middlebox, m.entries});
  }
  return report;
}

/// A stored cursor must index a state of the shard's *current* engine; a
/// cursor exported before a hot swap landed would resume the DFA from an
/// arbitrary (possibly out-of-range) state. The controller prevents this by
/// matching engine versions, but the instance still refuses rather than
/// trusting its caller.
bool cursor_fits_engine(const dpi::FlowCursor& cursor,
                        const dpi::Engine* engine) {
  if (!cursor.valid) return false;  // nothing worth storing
  return engine != nullptr && cursor.dfa_state < engine->num_automaton_states();
}

}  // namespace

ScanPool::Instruments DpiInstance::make_pool_instruments(
    obs::MetricsRegistry& metrics, const InstanceConfig& config) {
  ScanPool::Instruments ins;
  ins.queue_wait_ns = &metrics.histogram("pool.queue_wait_ns",
                                         obs::Histogram::latency_bounds_ns());
  ins.blocked = &metrics.counter("ingest.backpressure.blocked");
  ins.blocked_ns = &metrics.histogram("ingest.backpressure.blocked_ns",
                                      obs::Histogram::latency_bounds_ns());
  // 16 evenly spaced fill buckets spanning the configured ring capacity.
  const std::size_t cap = std::max<std::size_t>(config.queue_capacity, 1);
  ins.fill = &metrics.histogram(
      "ingest.queue_fill",
      obs::Histogram::linear_bounds(
          std::max<std::uint64_t>(1, static_cast<std::uint64_t>(cap) / 16),
          16));
  const std::size_t workers = std::max<std::size_t>(config.num_workers, 1);
  if (workers > 1) {
    ins.depth.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      ins.depth.push_back(
          &metrics.gauge("shard" + std::to_string(i) + ".queue_depth"));
    }
  }
  return ins;
}

DpiInstance::DpiInstance(std::string name, InstanceConfig config)
    : name_(std::move(name)),
      config_(config),
      trace_(config.trace_capacity),
      pool_(std::max<std::size_t>(config.num_workers, 1),
            config.queue_capacity, config.overload,
            make_pool_instruments(metrics_, config)) {
  ingest_obs_.shed = &metrics_.counter("ingest.backpressure.shed");
  // Same counter the pool's blocked instrument points at (the registry
  // returns the existing entry): kept here so stats_json can read it.
  ingest_obs_.blocked = &metrics_.counter("ingest.backpressure.blocked");
  ingest_obs_.batch_packets = &metrics_.histogram(
      "ingest.batch_packets", obs::Histogram::linear_bounds(8, 32));
  ingest_obs_.batch_bytes = &metrics_.histogram(
      "ingest.batch_bytes", obs::Histogram::exponential_bounds(1024, 2.0, 16));
  ingest_obs_.batches_in_flight = &metrics_.gauge("ingest.batches_in_flight");

  static_assert(std::size(kCountNames) == kNumCounts);
  const std::size_t num_shards = std::max<std::size_t>(config.num_workers, 1);
  const std::size_t per_shard =
      std::max<std::size_t>(config.max_flows / num_shards, 1);
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    auto shard =
        std::make_unique<Shard>(per_shard, config.reassembly, config.defrag);
    shard->index = static_cast<std::uint32_t>(i);
    // Resolve instruments once; the stages record through these pointers
    // without ever touching the registry mutex.
    const std::string p = "shard" + std::to_string(i) + ".";
    for (std::size_t c = 0; c < kNumCounts; ++c) {
      shard->counters[c] = &metrics_.counter(p + kCountNames[c]);
    }
    shard->scan_ns =
        &metrics_.histogram(p + "scan_ns", obs::Histogram::latency_bounds_ns());
    shard->flow_occupancy = &metrics_.gauge(p + "flow_occupancy");
    shards_.push_back(std::move(shard));
  }
}

void DpiInstance::load_engine(std::shared_ptr<const dpi::Engine> engine,
                              std::uint64_t version) {
  std::size_t num_states = 0;
  {
    const MutexLock control(control_mu_);
    engine_ = engine;
    engine_version_ = version;
    if (engine_ != nullptr) num_states = engine_->num_automaton_states();
    // Swap shard by shard: scanning continues on shards not yet swapped,
    // and each shard always holds a consistent (engine, flow table) pair.
    // DFA state identifiers are meaningful only within one compiled engine;
    // carrying cursors across a recompile would resume at arbitrary states.
    for (auto& shard : shards_) {
      const MutexLock lock(shard->mu);
      shard->engine = engine;
      shard->flows.clear();
      DPISVC_ASSERT_INVARIANT(shard->flows.size() == 0,
                              "flow table must be empty after an engine swap");
    }
  }
  log(LogLevel::kInfo, name_, "loaded engine v", version, " (", num_states,
      " states)");
}

std::uint64_t DpiInstance::engine_version() const {
  const MutexLock lock(control_mu_);
  return engine_version_;
}

bool DpiInstance::has_engine() const {
  const MutexLock lock(control_mu_);
  return engine_ != nullptr;
}

std::shared_ptr<const dpi::Engine> DpiInstance::engine_snapshot() const {
  const MutexLock lock(control_mu_);
  return engine_;
}

net::ReassemblyStats DpiInstance::reassembly_stats() const {
  net::ReassemblyStats total;
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mu);
    const net::ReassemblyStats& s = shard->reassembler.stats();
    total.dropped_segments += s.dropped_segments;
    total.duplicate_bytes += s.duplicate_bytes;
    total.ambiguous_overlaps += s.ambiguous_overlaps;
    total.conflicting_overlap_bytes += s.conflicting_overlap_bytes;
    total.stream_evictions += s.stream_evictions;
    total.streams_closed += s.streams_closed;
    total.ignored_fins += s.ignored_fins;
    total.ignored_rsts += s.ignored_rsts;
  }
  return total;
}

net::DefragStats DpiInstance::defrag_stats() const {
  net::DefragStats total;
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mu);
    const net::DefragStats& s = shard->defrag.stats();
    total.fragments += s.fragments;
    total.datagrams_completed += s.datagrams_completed;
    total.rejected_tiny += s.rejected_tiny;
    total.rejected_bounds += s.rejected_bounds;
    total.ambiguous_fragments += s.ambiguous_fragments;
    total.conflicting_bytes += s.conflicting_bytes;
    total.evicted_incomplete += s.evicted_incomplete;
  }
  return total;
}

InstanceTelemetry DpiInstance::telemetry() const {
  std::array<std::uint64_t, kNumCounts> n{};
  std::uint64_t busy_ns = 0;
  for (const auto& shard : shards_) {
    for (std::size_t c = 0; c < kNumCounts; ++c) {
      n[c] += shard->counters[c]->value();
    }
    busy_ns += shard->scan_ns->sum();
  }
  InstanceTelemetry t;
  t.packets = n[kPackets];
  t.bytes = n[kBytes];
  t.raw_hits = n[kRawHits];
  t.match_packets = n[kMatchPackets];
  t.result_bytes = n[kResultBytes];
  t.pass_through = n[kPassThrough];
  t.decompressed_packets = n[kDecompressedPackets];
  t.decompressed_bytes = n[kDecompressedBytes];
  t.reassembly_held = n[kReassemblyHeld];
  t.defrag_held = n[kDefragHeld];
  t.flow_evictions = n[kFlowEvictions];
  t.busy_seconds = static_cast<double>(busy_ns) * 1e-9;
  return t;
}

std::map<dpi::ChainId, ChainTelemetry> DpiInstance::chain_telemetry() const {
  std::map<dpi::ChainId, ChainTelemetry> total;
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mu);
    for (const auto& [chain, counters] : shard->chain_telemetry) {
      ChainTelemetry& into = total[chain];
      into.packets += counters.packets;
      into.bytes += counters.bytes;
      into.raw_hits += counters.raw_hits;
    }
  }
  return total;
}

json::Value DpiInstance::stats_json() const {
  json::Object root;
  root["instance"] = json::Value(name_);
  root["engine_version"] = json::Value(engine_version());
  root["num_shards"] = json::Value(static_cast<std::uint64_t>(shards_.size()));
  root["active_flows"] = json::Value(static_cast<std::uint64_t>(active_flows()));

  const InstanceTelemetry t = telemetry();
  json::Object counters;
  counters["packets"] = json::Value(t.packets);
  counters["bytes"] = json::Value(t.bytes);
  counters["raw_hits"] = json::Value(t.raw_hits);
  counters["match_packets"] = json::Value(t.match_packets);
  counters["result_bytes"] = json::Value(t.result_bytes);
  counters["pass_through"] = json::Value(t.pass_through);
  counters["decompressed_packets"] = json::Value(t.decompressed_packets);
  counters["decompressed_bytes"] = json::Value(t.decompressed_bytes);
  counters["reassembly_held"] = json::Value(t.reassembly_held);
  counters["defrag_held"] = json::Value(t.defrag_held);
  counters["flow_evictions"] = json::Value(t.flow_evictions);
  counters["busy_seconds"] = json::Value(t.busy_seconds);
  counters["hits_per_byte"] = json::Value(t.hits_per_byte());
  root["telemetry"] = json::Value(std::move(counters));

  const net::ReassemblyStats rs = reassembly_stats();
  json::Object reassembly;
  reassembly["policy"] =
      json::Value(std::string(
          net::overlap_policy_name(config_.reassembly.overlap_policy)));
  reassembly["dropped_segments"] = json::Value(rs.dropped_segments);
  reassembly["duplicate_bytes"] = json::Value(rs.duplicate_bytes);
  reassembly["ambiguous_overlaps"] = json::Value(rs.ambiguous_overlaps);
  reassembly["conflicting_overlap_bytes"] =
      json::Value(rs.conflicting_overlap_bytes);
  reassembly["stream_evictions"] = json::Value(rs.stream_evictions);
  reassembly["streams_closed"] = json::Value(rs.streams_closed);
  reassembly["ignored_fins"] = json::Value(rs.ignored_fins);
  reassembly["ignored_rsts"] = json::Value(rs.ignored_rsts);
  root["reassembly"] = json::Value(std::move(reassembly));

  const net::DefragStats ds = defrag_stats();
  json::Object defrag;
  defrag["fragments"] = json::Value(ds.fragments);
  defrag["datagrams_completed"] = json::Value(ds.datagrams_completed);
  defrag["rejected_tiny"] = json::Value(ds.rejected_tiny);
  defrag["rejected_bounds"] = json::Value(ds.rejected_bounds);
  defrag["ambiguous_fragments"] = json::Value(ds.ambiguous_fragments);
  defrag["conflicting_bytes"] = json::Value(ds.conflicting_bytes);
  defrag["evicted_incomplete"] = json::Value(ds.evicted_incomplete);
  root["defrag"] = json::Value(std::move(defrag));

  json::Object ingest;
  ingest["overload_policy"] =
      json::Value(std::string(overload_policy_name(config_.overload)));
  ingest["queue_capacity"] =
      json::Value(static_cast<std::uint64_t>(config_.queue_capacity));
  ingest["backpressure_blocked"] = json::Value(ingest_obs_.blocked->value());
  ingest["backpressure_shed"] = json::Value(ingest_obs_.shed->value());
  ingest["batches_in_flight"] =
      json::Value(ingest_obs_.batches_in_flight->value());
  root["ingest"] = json::Value(std::move(ingest));

  json::Object chains;
  for (const auto& [chain, ct] : chain_telemetry()) {
    json::Object c;
    c["packets"] = json::Value(ct.packets);
    c["bytes"] = json::Value(ct.bytes);
    c["raw_hits"] = json::Value(ct.raw_hits);
    chains[std::to_string(chain)] = json::Value(std::move(c));
  }
  root["chains"] = json::Value(std::move(chains));

  root["metrics"] = metrics_.snapshot();
  if (trace_.enabled()) {
    root["trace"] = trace_.to_json();
  }
  return json::Value(std::move(root));
}

std::size_t DpiInstance::active_flows() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mu);
    total += shard->flows.size();
  }
  return total;
}

std::vector<net::FiveTuple> DpiInstance::active_flow_keys() const {
  std::vector<net::FiveTuple> out;
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mu);
    const auto keys = shard->flows.keys();
    out.insert(out.end(), keys.begin(), keys.end());
  }
  return out;
}

// --- entry points ------------------------------------------------------------

template <typename FlowOf, typename Bucket>
void DpiInstance::run_buckets(std::size_t n, FlowOf&& flow_of,
                              Bucket&& bucket) {
  if (n == 0) return;
  // thread_local: concurrent batch callers never share the scratch, and it
  // keeps its capacity from batch to batch.
  thread_local ShardPartition partition;
  partition.build(*this, n, flow_of);
  // A plain struct on the dispatcher's stack threaded through the pool's
  // function-pointer job slots: a dispatch allocates nothing.
  struct Ctx {
    const ShardPartition* partition;
    std::remove_reference_t<Bucket>* bucket;
    JobError error;
  };
  Ctx ctx{&partition, &bucket, {}};
  pool_.dispatch(
      [](void* raw, std::size_t shard) {
        auto* c = static_cast<Ctx*>(raw);
        const std::size_t count = c->partition->size(shard);
        if (count == 0) return;
        c->error.guard(
            [&] { (*c->bucket)(shard, c->partition->bucket(shard), count); });
      },
      &ctx, shards_.size());
  if (std::exception_ptr error = ctx.error.take()) {
    std::rethrow_exception(error);
  }
}

ProcessOutput DpiInstance::process(net::Packet packet) {
  ProcessOutput out;
  process_bucket(shard_of_flow(packet.tuple), &packet, kIdentity.data(), 1,
                 &out);
  return out;
}

std::vector<ProcessOutput> DpiInstance::process_batch(
    std::vector<net::Packet> packets) {
  std::vector<ProcessOutput> out(packets.size());
  run_buckets(
      packets.size(),
      [&](std::size_t i) -> const net::FiveTuple& { return packets[i].tuple; },
      [&](std::size_t shard, const std::uint32_t* indices, std::size_t count) {
        // A flow's packets share a bucket and keep submission order, so the
        // outputs match the per-packet process() path exactly.
        process_bucket(shard, packets.data(), indices, count, out.data());
      });
  return out;
}

dpi::ScanResult DpiInstance::scan(dpi::ChainId chain,
                                  const net::FiveTuple& flow,
                                  BytesView payload) {
  const ScanItem item{chain, flow, payload};
  dpi::ScanResult result;
  scan_bucket(shard_of_flow(flow), &item, kIdentity.data(), 1, &result);
  return result;
}

std::vector<dpi::ScanResult> DpiInstance::scan_batch(
    const std::vector<ScanItem>& items) {
  std::vector<dpi::ScanResult> out(items.size());
  run_buckets(
      items.size(),
      [&](std::size_t i) -> const net::FiveTuple& { return items[i].flow; },
      [&](std::size_t shard, const std::uint32_t* indices, std::size_t count) {
        scan_bucket(shard, items.data(), indices, count, out.data());
      });
  return out;
}

void DpiInstance::scan_bucket(std::size_t shard_idx, const ScanItem* items,
                              const std::uint32_t* indices, std::size_t count,
                              dpi::ScanResult* out) {
  Shard& shard = *shards_[shard_idx];
  const MutexLock lock(shard.mu);
  for (std::size_t pos = 0; pos < count; pos += kMaxRun) {
    Tally tally;
    scan_window(shard, items, indices + pos, std::min(kMaxRun, count - pos),
                out, tally);
    account(shard, tally);
  }
}

void DpiInstance::process_bucket(std::size_t shard_idx, net::Packet* packets,
                                 const std::uint32_t* indices,
                                 std::size_t count, ProcessOutput* out) {
  Shard& shard = *shards_[shard_idx];
  const MutexLock lock(shard.mu);
  Staging& staged = shard.staging;
  for (std::size_t pos = 0; pos < count; pos += kMaxRun) {
    Tally tally;
    normalize(shard, packets, indices + pos, std::min(kMaxRun, count - pos),
              out, tally);
    scan_window(shard, staged.items.data(), kIdentity.data(), staged.size,
                staged.results.data(), tally);
    emit(shard, packets, out, tally);
    account(shard, tally);
  }
}

// --- stages ------------------------------------------------------------------

void DpiInstance::normalize(Shard& shard, net::Packet* packets,
                            const std::uint32_t* indices, std::size_t count,
                            ProcessOutput* out, Tally& tally) {
  Staging& staged = shard.staging;
  staged.size = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t i = indices[k];
    net::Packet& packet = packets[i];
    const auto tag = packet.find_tag(net::TagKind::kPolicyChain);
    if (trace_.enabled()) {
      trace_.record(obs::TraceEvent::kPacketIn,
                    packet.tuple.canonical().hash(), 0, packet.payload.size(),
                    shard.index, tag ? static_cast<std::uint32_t>(*tag) : 0u);
    }
    if (!tag || shard.engine == nullptr ||
        !shard.engine->chain_known(static_cast<dpi::ChainId>(*tag))) {
      // Not ours to inspect: forward unchanged.
      ++tally.n[kPassThrough];
      out[i].data = std::move(packet);
      continue;
    }

    // IPv4 defragmentation: scan whole datagrams, not fragments. An
    // incomplete fragment is forwarded unchanged (middleboxes see it; the
    // scan runs on the packet that completes the datagram, which then
    // carries the reassembled payload).
    if (config_.defragment_ip) {
      if (packet.is_fragment()) {
        std::optional<net::Packet> full = shard.defrag.feed(packet);
        if (!full) {
          ++tally.n[kDefragHeld];
          out[i].data = std::move(packet);
          continue;
        }
        packet = std::move(*full);
      } else {
        // Non-fragments still advance the defragmenter's logical clock so
        // partial datagrams time out against real traffic.
        shard.defrag.tick();
      }
    }

    // Stream reassembly (§7): scan in-order stream chunks, not raw segments.
    Bytes& owned = staged.bytes[staged.size];
    BytesView bytes = packet.payload;
    if (config_.reassemble_tcp && packet.tuple.proto == net::IpProto::kTcp) {
      std::optional<net::ReassembledChunk> chunk =
          shard.reassembler.feed(packet);
      if (!chunk) {
        // Out-of-order segment: nothing contiguous yet. Forward the packet
        // (middleboxes see it; results for its bytes come with the packet
        // that completes the gap).
        ++tally.n[kReassemblyHeld];
        out[i].data = std::move(packet);
        continue;
      }
      owned = std::move(chunk->data);
      bytes = owned;
    }

    // Decompress once for all middleboxes on the chain (§1).
    if (std::optional<Bytes> inflated = maybe_decompress(bytes)) {
      ++tally.n[kDecompressedPackets];
      tally.n[kDecompressedBytes] += inflated->size();
      owned = std::move(*inflated);
      bytes = owned;
    }
    staged.packet[staged.size] = i;
    staged.items[staged.size] =
        ScanItem{static_cast<dpi::ChainId>(*tag), packet.tuple, bytes};
    ++staged.size;
  }
}

void DpiInstance::scan_window(Shard& shard, const ScanItem* items,
                              const std::uint32_t* indices, std::size_t count,
                              dpi::ScanResult* out, Tally& tally) {
  if (count == 0) return;
  if (shard.engine == nullptr) {
    throw std::logic_error("DpiInstance::scan: no engine loaded");
  }
  DPISVC_ASSERT_INVARIANT(count <= kMaxRun, "a scan window holds <= kMaxRun");
  const dpi::Engine& engine = *shard.engine;
  Staging& staged = shard.staging;
  std::size_t pos = 0;
  while (pos < count) {
    // Form a same-chain run for the interleaved kernel. A stateful run
    // additionally (a) breaks before a flow it already contains — each run
    // cursor must see the previous packet's update — and (b) only forms
    // while no LRU eviction is possible (run cursors are looked up before
    // any update; with every run flow distinct and room for all inserts,
    // the flow table ends in the same state as the sequential order, so
    // results stay identical).
    const dpi::ChainId chain = items[indices[pos]].chain;
    const bool stateful = engine.chain_stateful(chain);
    std::size_t end = pos + 1;
    if (engine.kernel_active() &&
        (!stateful || shard.flows.size() + kMaxRun <= shard.flows.capacity())) {
      while (end < count && items[indices[end]].chain == chain) {
        const net::FiveTuple& flow = items[indices[end]].flow;
        if (stateful &&
            std::any_of(indices + pos, indices + end, [&](std::uint32_t j) {
              return items[j].flow.canonical() == flow.canonical();
            })) {
          break;
        }
        ++end;
      }
    }

    Stopwatch watch;
    staged.payloads.clear();
    staged.cursors.clear();
    for (std::size_t k = pos; k < end; ++k) {
      const ScanItem& item = items[indices[k]];
      if (trace_.enabled()) {
        trace_.record(obs::TraceEvent::kShardDispatch,
                      item.flow.canonical().hash(), 0, item.payload.size(),
                      shard.index, chain);
      }
      staged.payloads.push_back(item.payload);
      // The run's flows are distinct, so each lookup precedes its flow's
      // sole update and no two cursors alias.
      if (stateful) staged.cursors.push_back(shard.flows.lookup(item.flow));
    }
    // A lone packet takes the per-packet walk; a run takes the interleaved
    // one, whose results are byte-identical to scanning it sequentially.
    std::vector<dpi::ScanResult>& results = staged.run_results;
    if (end - pos == 1) {
      results.resize(1);
      results[0] = engine.scan_packet(
          chain, staged.payloads[0], stateful ? staged.cursors[0] : kNoCursor);
    } else {
      results = engine.scan_batch(chain, staged.payloads,
                                  stateful ? &staged.cursors : nullptr);
    }
    // One clock read per run; each packet is attributed its share — the
    // interleave makes per-packet walk time unmeasurable in isolation.
    Tally::Run& run = tally.runs[tally.num_runs++];
    run = Tally::Run{chain, static_cast<std::uint32_t>(end - pos), 0, 0,
                     watch.elapsed_ns()};

    for (std::size_t k = pos; k < end; ++k) {
      const ScanItem& item = items[indices[k]];
      dpi::ScanResult& result = results[k - pos];
      if (stateful) {
        DPISVC_ASSERT_INVARIANT(
            result.cursor.valid &&
                result.cursor.dfa_state < engine.num_automaton_states(),
            "stateful scan must leave the cursor on a state of this engine");
        if (shard.flows.update(item.flow, result.cursor)) {
          // A live cursor was LRU-evicted: the victim flow resumes from the
          // DFA root, so a pattern straddling this point is missed. Count
          // it so the capacity shortfall is observable (§4.3.1 telemetry).
          ++tally.n[kFlowEvictions];
          log(LogLevel::kDebug, name_,
              "flow table full: evicted live stateful cursor");
        }
      }
      run.bytes += item.payload.size();
      run.raw_hits += result.raw_hits;
      tally.n[kAnchorHits] += result.anchor_hits_seen;
      tally.n[kRegexEvals] += result.regexes_evaluated;
      tally.n[kRegexMatches] += result.regex_matches;
      if (result.has_matches()) ++tally.n[kMatchPackets];
      if (trace_.enabled()) {
        const std::uint64_t fh = item.flow.canonical().hash();
        const std::uint64_t flow_offset =
            result.cursor.valid ? result.cursor.offset : result.bytes_scanned;
        trace_.record(obs::TraceEvent::kDfaScan, fh, flow_offset,
                      result.bytes_scanned, shard.index, chain);
        if (result.regexes_evaluated > 0) {
          trace_.record(obs::TraceEvent::kRegexEval, fh, flow_offset,
                        result.regexes_evaluated, shard.index, chain);
        }
        std::uint64_t entries = 0;
        for (const auto& m : result.matches) entries += m.entries.size();
        trace_.record(obs::TraceEvent::kVerdict, fh, flow_offset, entries,
                      shard.index, chain);
      }
      // Distinct indices per bucket: writes to `out` never alias.
      out[indices[k]] = std::move(result);
    }
    pos = end;
  }
}

void DpiInstance::emit(Shard& shard, net::Packet* packets, ProcessOutput* out,
                       Tally& tally) {
  Staging& staged = shard.staging;
  for (std::size_t k = 0; k < staged.size; ++k) {
    staged.bytes[k] = Bytes();  // the scan is done with the staged payload
    net::Packet& packet = packets[staged.packet[k]];
    ProcessOutput& o = out[staged.packet[k]];
    const dpi::ChainId chain = staged.items[k].chain;
    const dpi::ScanResult& scanned = staged.results[k];

    const bool result_only = config_.result_mode == ResultMode::kResultOnly &&
                             shard.engine->chain_read_only(chain);
    if (result_only) {
      // §4.2 option 3: the data packet bypasses the (read-only) middleboxes;
      // pop the steering tag so the switch sends it straight to the egress.
      packet.pop_tag(net::TagKind::kPolicyChain);
    }
    if (!scanned.has_matches()) {
      // §4.2: "a packet with no matches is always forwarded as is".
      o.data = std::move(packet);
      continue;
    }

    o.had_matches = true;
    Bytes encoded = net::encode_report(
        build_report(chain, packet_ref_of(packet), scanned), config_.codec);
    tally.n[kResultBytes] += encoded.size();
    packet.set_match_mark(true);  // §6.1: ECN marks "has matches"
    if (config_.result_mode == ResultMode::kServiceHeader && !result_only) {
      packet.service_header = net::ServiceHeader{chain, 0, std::move(encoded)};
      o.data = std::move(packet);
      continue;
    }

    // Dedicated result packet follows the data packet through the chain (or,
    // in result-only mode, travels the chain alone): it copies the flow tuple
    // and steering tags and is marked by the reserved service-path id.
    net::Packet result;
    result.src_mac = packet.src_mac;
    result.dst_mac = packet.dst_mac;
    result.tags = packet.tags;
    if (result_only) {
      result.push_tag(net::TagKind::kPolicyChain, chain);  // data's tag popped
    }
    result.tuple = packet.tuple;
    result.ip_id = packet.ip_id;
    result.service_header =
        net::ServiceHeader{kResultServicePathId, 0, std::move(encoded)};
    o.data = std::move(packet);
    o.result = std::move(result);
  }
}

void DpiInstance::account(Shard& shard, const Tally& tally) {
  std::array<std::uint64_t, kNumCounts> n = tally.n;
  for (std::size_t r = 0; r < tally.num_runs; ++r) {
    const Tally::Run& run = tally.runs[r];
    shard.scan_ns->record(run.ns / run.packets, run.packets);
    ChainTelemetry& chain = shard.chain_telemetry[run.chain];
    chain.packets += run.packets;
    chain.bytes += run.bytes;
    chain.raw_hits += run.raw_hits;
    n[kPackets] += run.packets;
    n[kBytes] += run.bytes;
    n[kRawHits] += run.raw_hits;
  }
  for (std::size_t c = 0; c < kNumCounts; ++c) {
    if (n[c] != 0) shard.counters[c]->add(n[c]);
  }
  shard.flow_occupancy->set(static_cast<std::int64_t>(shard.flows.size()));
}

/// Decompress-once preprocessing (§1): returns the inflated payload when
/// the packet carries a gzip or zlib body and decompression is enabled;
/// otherwise std::nullopt (scan the raw bytes).
std::optional<Bytes> DpiInstance::maybe_decompress(BytesView payload) const {
  if (!config_.decompress_payloads) return std::nullopt;
  compress::InflateLimits limits;
  limits.max_output = config_.max_decompressed;
  try {
    if (compress::looks_like_gzip(payload)) {
      return compress::gzip_decompress(payload, limits);
    }
    if (compress::looks_like_zlib(payload)) {
      return compress::zlib_decompress(payload, limits);
    }
  } catch (const compress::InflateError&) {
    // Not actually compressed (or corrupt / a bomb): scan the raw bytes.
  }
  return std::nullopt;
}

// --- flow migration ----------------------------------------------------------

dpi::FlowCursor DpiInstance::export_flow(const net::FiveTuple& flow) {
  Shard& shard = shard_of(flow);
  const MutexLock lock(shard.mu);
  return shard.flows.extract(flow);
}

void DpiInstance::import_flow(const net::FiveTuple& flow,
                              const dpi::FlowCursor& cursor) {
  Shard& shard = shard_of(flow);
  const MutexLock lock(shard.mu);
  if (!cursor_fits_engine(cursor, shard.engine.get())) return;
  shard.flows.update(flow, cursor);
}

std::vector<std::pair<net::FiveTuple, dpi::FlowCursor>>
DpiInstance::export_all_flows() {
  std::vector<std::pair<net::FiveTuple, dpi::FlowCursor>> out;
  // Shard at a time: the rest of the data plane keeps scanning while one
  // shard is drained.
  for (auto& shard : shards_) {
    const MutexLock lock(shard->mu);
    auto drained = shard->flows.drain();
    out.insert(out.end(), std::make_move_iterator(drained.begin()),
               std::make_move_iterator(drained.end()));
  }
  return out;
}

void DpiInstance::import_flows(
    const std::vector<std::pair<net::FiveTuple, dpi::FlowCursor>>& flows) {
  for (const auto& [flow, cursor] : flows) {
    Shard& shard = shard_of(flow);
    const MutexLock lock(shard.mu);
    if (!cursor_fits_engine(cursor, shard.engine.get())) continue;
    shard.flows.update(flow, cursor);
  }
}

}  // namespace dpisvc::service
