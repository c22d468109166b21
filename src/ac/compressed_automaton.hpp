// Failure-link (compressed) Aho-Corasick automaton.
//
// Instead of materializing all 256 transitions per state, each state keeps
// only its forward (goto) edges plus the failure pointer; a missing edge is
// resolved by walking failure links at scan time. Memory drops from
// states*256*4 bytes to a few bytes per edge, at the cost of a data-dependent
// number of memory touches per input byte.
//
// This is the "different AC implementation ... more suitable for handling
// this kind of traffic" that MCA² dedicated instances run (§4.3.1, [9,10]):
// its worst-case per-byte work is bounded by the pattern depth and its small
// footprint stays cache-resident under adversarial traffic that is designed
// to thrash a full table.
//
// It is also the one automaton every dpi::Engine holds. A regular engine
// adds ac::HotKernel, a u16 cache of this automaton's near-root core built
// straight from its goto edges and failure links; the scan walks the kernel
// while the state is hot and step() while it is cold.
//
// State numbering matches FullAutomaton state for state: both renumber the
// trie with the same pass (accepting states exactly {0..num_accepting-1},
// then the rest in trie order), so match tables, bitmaps and the DFA state a
// FlowCursor carries mean the same thing in the two representations built
// from the same trie. verify::check_equivalence proves it transition by
// transition, and check_hot_kernel proves the kernel against the full table.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ac/trie.hpp"
#include "common/bytes.hpp"

namespace dpisvc::ac {

class CompressedAutomaton {
 public:
  /// One goto edge.
  struct Edge {
    std::uint8_t byte = 0;
    StateIndex target = 0;
  };

  CompressedAutomaton() = default;

  static CompressedAutomaton build(Trie& trie);

  std::uint32_t num_states() const noexcept { return num_states_; }
  std::uint32_t num_accepting() const noexcept { return num_accepting_; }
  StateIndex start_state() const noexcept { return start_; }

  bool is_accepting(StateIndex state) const noexcept {
    return state < num_accepting_;
  }

  /// Single transition: follows failure links until a forward edge matches
  /// (or the root is reached).
  StateIndex step(StateIndex state, std::uint8_t byte) const noexcept;

  const std::vector<PatternIndex>& matches_at(StateIndex accept) const {
    return match_table_[accept];
  }

  std::uint32_t depth(StateIndex state) const { return depth_[state]; }

  /// Failure pointer of a state (the start state's failure is itself).
  /// Exposed for the static verifier (src/verify), which proves the links
  /// acyclic and depth-decreasing.
  StateIndex fail_link(StateIndex state) const { return fail_[state]; }

  /// Goto edges of a state, sorted by byte.
  std::span<const Edge> edges(StateIndex state) const {
    const EdgeRange range = ranges_[state];
    return std::span<const Edge>(edges_).subspan(range.begin,
                                                 range.end - range.begin);
  }

  template <typename OnMatch>
  StateIndex scan(BytesView data, StateIndex state, OnMatch&& on_match) const {
    std::uint64_t cnt = 0;
    for (std::uint8_t byte : data) {
      state = step(state, byte);
      ++cnt;
      if (state < num_accepting_) {
        on_match(Match{cnt, state});
      }
    }
    return state;
  }

  template <typename OnMatch>
  StateIndex scan(BytesView data, OnMatch&& on_match) const {
    return scan(data, start_, std::forward<OnMatch>(on_match));
  }

  std::size_t memory_bytes() const noexcept;

 private:
  struct EdgeRange {
    std::uint32_t begin = 0;  // into edges_
    std::uint32_t end = 0;
  };

  std::uint32_t num_states_ = 0;
  std::uint32_t num_accepting_ = 0;
  StateIndex start_ = 0;
  std::vector<EdgeRange> ranges_;  // per state, sorted edges in edges_
  std::vector<Edge> edges_;
  std::vector<StateIndex> fail_;
  std::vector<std::vector<PatternIndex>> match_table_;
  std::vector<std::uint32_t> depth_;
};

}  // namespace dpisvc::ac
