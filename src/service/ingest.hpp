// Zero-copy batched ingest pipeline: the fabric→shard handoff (§6).
//
// The per-packet path costs one shard-lock round trip and one pool job per
// packet, and — worse — every hop through the old handoff copied the
// payload. This pipeline is the run-to-completion alternative: payload
// bytes are written exactly once, into the current batch's arena, at
// push(); everything downstream — the per-shard scan jobs and the
// middlebox verdict delivered through the sink — works on BytesViews into
// that arena. No payload byte is copied again after ingress.
//
// Flow of a packet:
//
//   push(chain, flow, payload)           one arena append (the only copy)
//     └─ batch fills to batch_packets → flush()
//          └─ stable partition by shard, one ScanPool job per non-empty
//             shard bucket (FIFO per worker ⇒ per-flow order holds across
//             batches), pending = #jobs
//   push()/flush()/drain() deliver completed batches to the sink strictly
//   in submission order; the arena is recycled once the sink returns and
//   every BatchHandle lease is gone. A batch whose shard job threw (an
//   unknown chain, no engine loaded) is not handed to the sink: the call
//   that would deliver it rethrows the exception instead, and the batches
//   behind it stay queued, in order, for the next push/poll/drain.
//
// Backpressure (the bounded-queue fix): at most max_batches batches exist
// at once — in-flight, free, or being filled — so ingest memory is bounded
// by max_batches × (arena + item vectors) regardless of how far a stalled
// shard falls behind. When no batch slot is free, the instance's
// OverloadPolicy decides: kBlock waits for the oldest in-flight batch
// (backpressure propagates to the fabric; the pool's
// ingest.backpressure.blocked counter fires), kShed drops the pushed packet
// and counts it in ingest.backpressure.shed. Shedding happens only at
// batch admission — whole packets, never per-shard jobs — so every
// accepted packet's result is delivered and, for the accepted subset,
// results are byte-identical to the sequential scan path.
//
// Threading contract: push()/flush()/poll()/drain() must be called from one
// thread (the fabric event loop). That contract is encoded for the Clang
// thread-safety analysis as the `producer_role_` capability below: every
// pipeline field is GUARDED_BY the role, each public entry point claims it
// once, and the internal helpers declare DPISVC_REQUIRES — so a new code
// path that touches pipeline state without going through a public entry
// point fails to compile under -Werror=thread-safety. The cross-thread
// protocol (batch pending counters, arena lease gating) lives in
// service/batch_sync.hpp and is exhaustively explored by the dpisvc_mc
// model checker (DESIGN.md §7). The per-shard scans run on the instance's
// pool workers; the sink runs on the calling thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/thread_safety.hpp"
#include "service/instance.hpp"

namespace dpisvc::service {

struct IngestBatch;  // defined in ingest.cpp

struct IngestConfig {
  /// Packets per batch: push() flushes automatically at this size.
  std::size_t batch_packets = 64;
  /// Bound on simultaneously existing batches (in flight + free + the one
  /// being filled). This is the ingest memory bound; 0 is clamped to 1.
  std::size_t max_batches = 8;
  /// Arena chunk size; batches whose payload exceeds it chain more chunks.
  std::size_t arena_chunk_bytes = 128 * 1024;
};

/// Refcounted view of a completed batch: the items, their packet refs, the
/// scan results, and (transitively) the arena every payload view points
/// into. Copying a handle takes a lease on the batch's LeaseCounter
/// (service/batch_sync.hpp) — the pipeline recycles a batch's arena only
/// after the sink returned AND every lease was dropped, so a consumer may
/// keep a handle past the sink call (including on another thread) and the
/// payload bytes stay valid until it drops the handle.
class BatchHandle {
 public:
  BatchHandle() = default;
  BatchHandle(const BatchHandle& other) noexcept;
  BatchHandle(BatchHandle&& other) noexcept;
  BatchHandle& operator=(const BatchHandle& other) noexcept;
  BatchHandle& operator=(BatchHandle&& other) noexcept;
  ~BatchHandle();

  bool valid() const noexcept { return batch_ != nullptr; }
  std::size_t size() const noexcept;
  /// Items in submission order; payload views point into the batch arena.
  const std::vector<ScanItem>& items() const noexcept;
  /// Caller-supplied packet refs, parallel to items().
  const std::vector<std::uint64_t>& packet_refs() const noexcept;
  /// Scan results, parallel to items().
  const std::vector<dpi::ScanResult>& results() const noexcept;

 private:
  friend class IngestPipeline;
  explicit BatchHandle(std::shared_ptr<IngestBatch> batch) noexcept;
  void release() noexcept;

  std::shared_ptr<IngestBatch> batch_;
};

class IngestPipeline {
 public:
  /// Invoked once per completed batch, in submission order, on the
  /// producer thread (from push/flush/drain).
  using Sink = std::function<void(const BatchHandle&)>;

  IngestPipeline(DpiInstance& instance, Sink sink, IngestConfig config = {});

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Drains: every accepted packet is scanned and delivered (or dropped
  /// with its failed batch) before destruction completes.
  ~IngestPipeline();

  /// Stages one packet: copies `payload` into the batch arena (the ingest
  /// path's single copy) and records (chain, flow, packet_ref). Returns
  /// false iff the packet was shed (kShed policy with every batch slot
  /// busy); a false return means this packet will never produce a result.
  /// May deliver earlier completed batches to the sink before returning,
  /// and so may rethrow what a failed batch threw (see the header comment).
  bool push(dpi::ChainId chain, const net::FiveTuple& flow, BytesView payload,
            std::uint64_t packet_ref = 0);

  /// Submits the partially filled current batch to the shard workers (no-op
  /// when empty). Call at end-of-burst so stragglers don't wait for the
  /// batch to fill.
  void flush();

  /// Delivers every batch whose workers already finished (in order, up to
  /// the first still-running batch). Returns packets delivered.
  std::size_t poll();

  /// flush() + wait for all in-flight batches + deliver everything.
  /// Returns packets delivered during the drain.
  std::size_t drain();

  const IngestConfig& config() const noexcept { return config_; }
  std::uint64_t packets_pushed() const noexcept;
  std::uint64_t packets_shed() const noexcept;
  std::uint64_t batches_flushed() const noexcept;
  /// Batches currently owned by the pipeline (the memory-bound witness:
  /// never exceeds max_batches unless the consumer holds leases).
  std::size_t batches_allocated() const noexcept;

 private:
  std::shared_ptr<IngestBatch> make_batch() DPISVC_REQUIRES(producer_role_);
  /// Hands `current_` a batch to fill; false = shed (kShed, all busy).
  bool acquire_batch() DPISVC_REQUIRES(producer_role_);
  bool push_impl(dpi::ChainId chain, const net::FiveTuple& flow,
                 BytesView payload, std::uint64_t packet_ref)
      DPISVC_REQUIRES(producer_role_);
  void flush_impl() DPISVC_REQUIRES(producer_role_);
  std::size_t drain_impl() DPISVC_REQUIRES(producer_role_);
  std::size_t deliver_ready() DPISVC_REQUIRES(producer_role_);
  void recycle(std::shared_ptr<IngestBatch> batch)
      DPISVC_REQUIRES(producer_role_);

  DpiInstance& instance_;
  Sink sink_;
  IngestConfig config_;
  /// The single-producer-thread contract, checkable by Clang's
  /// thread-safety analysis (see header comment). Mutable so const
  /// accessors can claim it too — the role has no runtime state.
  mutable ThreadRole producer_role_;
  std::shared_ptr<IngestBatch> current_ DPISVC_GUARDED_BY(producer_role_);
  /// Submission-order FIFO of batches whose shard jobs are outstanding (or
  /// done but undelivered). Delivery always pops from the front, which is
  /// what makes batch delivery — and thus per-flow result order — match
  /// submission order.
  std::deque<std::shared_ptr<IngestBatch>> inflight_
      DPISVC_GUARDED_BY(producer_role_);
  std::vector<std::shared_ptr<IngestBatch>> free_
      DPISVC_GUARDED_BY(producer_role_);
  std::size_t total_batches_ DPISVC_GUARDED_BY(producer_role_) = 0;
  std::uint64_t pushed_ DPISVC_GUARDED_BY(producer_role_) = 0;
  std::uint64_t shed_ DPISVC_GUARDED_BY(producer_role_) = 0;
  std::uint64_t flushed_ DPISVC_GUARDED_BY(producer_role_) = 0;
};

}  // namespace dpisvc::service
