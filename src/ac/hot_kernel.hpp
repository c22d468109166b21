// Batched, cache-conscious scan kernel: a u16 cache of the failure-link
// automaton's near-root core.
//
// The failure-link automaton (CompressedAutomaton::step) binary-searches a
// state's goto edges and may chase several failure links per input byte.
// Almost every byte of real traffic, though, is walked within a few levels
// of the root. This kernel caches exactly that core as a dense transition
// table, along the lines of Hyperflex (PAPERS.md, "A SIMD-based DFA Model
// for Deep Packet Inspection"):
//
//  * Narrow (u16) state ids for the hot core: every state of depth <= D for
//    the largest D that keeps the core within kMaxHotStates. Hot rows are
//    filled straight from the automaton in depth order: the root row holds
//    the root's edges (every other byte stays at the root), and any other
//    hot state copies its failure state's row, then overwrites the bytes of
//    its own edges. No 256-wide u32 row is ever built.
//  * Byte classes: one per byte that labels an edge out of a hot state, plus
//    one class for all other bytes, which lead every hot state back to the
//    root. Rule-set alphabets are narrow (ASCII-heavy Snort/ClamAV strings),
//    so the row is often far narrower than 256 columns; the table is
//    `hot_states * stride * 2` bytes.
//  * Accepting-first renumbering is preserved inside the core (hot ids of
//    accepting states are exactly {0..hot_accepting-1}), so acceptance
//    stays the single compare the paper calls out (§5.1).
//  * Transitions that leave the hot core are encoded as the kColdExit
//    sentinel; the kernel returns the position and the automaton state, the
//    caller steps the failure-link automaton while the state is cold and
//    resumes the kernel once it is hot again. When the whole automaton fits,
//    no cold exits exist at all.
//  * A multi-byte-stride walk (kStride bytes per iteration, class lookups
//    issued up front) plus an interleaved mode that advances several
//    independent flows per pass: the transition loads of different lanes
//    have no data dependency, so the out-of-order core overlaps their
//    cache misses instead of serializing them — the memory-level-
//    parallelism trick Hyperflex applies with SIMD lane groups.
//
// Matches are emitted as (end_offset, accepting state) events into a
// caller-owned buffer instead of through a per-byte callback, which keeps
// the inner loop free of calls; the engine replays the events through the
// identical §5.1/§5.2 filtering whichever walk produced them. The kernel
// is portable C++ (no intrinsics required); cpu-feature detection only
// widens the interleave factor where the memory subsystem can use it (see
// kernel_policy()). src/verify proves the layout equal to the paper's full
// table transition-for-transition and cross-checks scan results
// byte-for-byte against an engine that walks the automaton alone.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "ac/compressed_automaton.hpp"
#include "common/bytes.hpp"

namespace dpisvc::ac {

/// Narrow state id inside the hot core.
using HotStateIndex = std::uint16_t;

/// Sentinel hot-table entry: the transition leaves the hot core (the caller
/// resolves it with CompressedAutomaton::step). Also the "not a hot state"
/// value of the automaton-state -> hot-id map.
inline constexpr std::uint16_t kColdExit = 0xFFFF;

/// Hot ids must stay below the sentinel.
inline constexpr std::uint32_t kMaxHotStates = 0xFFFF;

/// Process-wide interleave policy, resolved once on first use from the CPU.
struct KernelPolicy {
  /// CPU supports AVX2 (x86): the memory subsystem sustains enough
  /// outstanding misses to feed the wide interleave factor.
  bool wide_interleave = false;
  /// Flows advanced per interleaved pass (8 wide, 4 otherwise).
  std::uint32_t interleave = 4;
  /// Human-readable interleave decision for logs/benches.
  const char* reason = "";
};

const KernelPolicy& kernel_policy();

class HotKernel {
 public:
  /// One lane of an interleaved scan. `state` carries the automaton resume
  /// state in and the reached state out; `consumed` reports how many bytes
  /// the kernel walked (== data.size() unless a cold exit stopped the lane
  /// early — the caller then steps the automaton from `state` at
  /// data[consumed]). Match events append to `events` with end offsets
  /// relative to the start of `data`.
  struct Lane {
    BytesView data;
    StateIndex state = 0;
    std::size_t consumed = 0;
    std::vector<Match>* events = nullptr;
  };

  HotKernel() = default;

  /// Builds the hot-core cache of `automaton`. The hot set is all states of
  /// depth <= D for the largest D that fits `max_hot_states`; an automaton
  /// that fits entirely has no cold transitions. Returns an unavailable
  /// kernel for degenerate inputs (no states, or a root layer too large).
  static HotKernel build(const CompressedAutomaton& automaton,
                         std::uint32_t max_hot_states = kMaxHotStates);

  bool available() const noexcept { return num_hot_ != 0; }

  // --- layout introspection (src/verify proves these against the full
  // table) ---

  std::uint32_t num_hot_states() const noexcept { return num_hot_; }
  std::uint32_t num_hot_accepting() const noexcept { return hot_accepting_; }
  std::uint32_t num_classes() const noexcept { return num_classes_; }
  /// Depth bound of the hot core (max depth over hot states).
  std::uint32_t hot_depth() const noexcept { return hot_depth_; }
  /// True when every automaton state is in the core (no cold exits).
  bool complete() const noexcept { return complete_; }

  std::uint16_t byte_class(std::uint8_t byte) const noexcept {
    return class_of_[byte];
  }
  /// Hot id of an automaton state, or kColdExit if it is outside the core.
  /// These two require available().
  std::uint16_t hot_id(StateIndex state) const { return hot_of_[state]; }
  bool is_hot(StateIndex state) const { return hot_of_[state] != kColdExit; }
  /// Automaton state of a hot id.
  StateIndex state_id(HotStateIndex hot_state) const {
    return state_of_[hot_state];
  }
  /// Raw table entry: hot id of delta(state_id(state), b) for any byte b of
  /// class `cls`, or kColdExit.
  std::uint16_t table_entry(HotStateIndex state, std::uint16_t cls) const {
    return table_[(static_cast<std::size_t>(state) << class_shift_) | cls];
  }

  /// Resident bytes of the hot layout (table + maps); 0 when unavailable.
  std::size_t memory_bytes() const noexcept;

  // --- scanning -----------------------------------------------------------

  /// Single-flow walk. Returns with consumed == data.size(), or earlier at
  /// a cold exit (never consumes the cold byte: the caller re-resolves it
  /// with the automaton). A start state outside the core, or an unavailable
  /// kernel, returns immediately with consumed == 0.
  Lane scan(BytesView data, StateIndex start_state,
            std::vector<Match>& events) const;

  /// Interleaved walk: advances up to kMaxInterleave lanes in lockstep
  /// strides so their transition loads overlap. Each lane ends exactly as
  /// scan() would have left it — the interleave is invisible in the
  /// results.
  static constexpr std::size_t kMaxInterleave = 8;
  void scan_interleaved(Lane* lanes, std::size_t num_lanes) const;

 private:
  /// Bytes walked per lane per lockstep round.
  static constexpr std::size_t kStride = 4;

  std::uint32_t num_hot_ = 0;
  std::uint32_t hot_accepting_ = 0;
  std::uint32_t num_classes_ = 0;
  /// log2 of the table row stride: num_classes rounded up to a power of
  /// two, so the row index is `(state << shift) | class` — a shift and an
  /// or on the load-to-load dependency chain where a row multiply would
  /// add three more latency cycles per byte.
  std::uint32_t class_shift_ = 0;
  std::uint32_t hot_depth_ = 0;
  bool complete_ = false;
  std::array<std::uint16_t, 256> class_of_{};
  std::vector<std::uint16_t> table_;   ///< num_hot << class_shift
  std::vector<std::uint16_t> hot_of_;  ///< state -> hot id / kColdExit
  std::vector<StateIndex> state_of_;   ///< hot id -> state
};

}  // namespace dpisvc::ac
