// Aho-Corasick goto trie with failure links and output sets.
//
// This is the phase-1/phase-2 construction of §3: patterns are inserted as
// chains from the root (shared prefixes share states), then a BFS computes
// for every state the failure link — the state whose label is the longest
// proper suffix of this state's label — and the output set (patterns ending
// at the state, unioned with the failure target's output so that suffix
// patterns are reported, the propagation rule of §5.1).
//
// The trie is the shared intermediate for both representations:
//  - ac::CompressedAutomaton — forward transitions + failure pointers, the
//    one automaton every dpi::Engine holds (the compact form MCA² dedicated
//    instances run, §4.3.1; regular engines add ac::HotKernel, a u16 cache
//    of its near-root core);
//  - ac::FullAutomaton — the paper's full 256-ary transition table, kept as
//    the reference that src/verify proves the engine against and that Table
//    2's "Space" column sizes.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "common/bytes.hpp"

namespace dpisvc::ac {

using PatternIndex = std::uint32_t;
using StateIndex = std::uint32_t;

inline constexpr StateIndex kNoState = std::numeric_limits<StateIndex>::max();

/// One reported match during a scan.
struct Match {
  /// Byte offset one past the last byte of the matched pattern (i.e. the
  /// number of bytes scanned when the match fired — the paper's `cnt`).
  std::uint64_t end_offset = 0;
  /// The accepting state that fired; key into matches_at() / user tables.
  StateIndex accept_state = 0;
};

class Trie {
 public:
  Trie();

  /// Inserts a pattern and associates it with `pattern` index. Empty patterns
  /// are rejected (they would make the root accepting and match everywhere).
  /// Duplicate insertions of the same byte string are allowed and simply add
  /// another index to the same terminal state.
  void insert(BytesView pattern, PatternIndex index);
  void insert(std::string_view pattern, PatternIndex index);

  /// Computes failure links and propagated output sets. Must be called after
  /// all insertions and before the accessors below are used. Idempotent.
  void finalize();

  bool finalized() const noexcept { return finalized_; }
  std::size_t num_states() const noexcept { return nodes_.size(); }
  std::size_t num_patterns_inserted() const noexcept { return inserted_; }

  /// Forward (goto) transition or kNoState.
  StateIndex forward(StateIndex state, std::uint8_t byte) const;

  /// Failure link (root's failure is the root itself). Requires finalize().
  StateIndex fail(StateIndex state) const;

  /// Depth = label length of the state.
  std::uint32_t depth(StateIndex state) const;

  /// Full output set (with suffix propagation). Requires finalize().
  const std::vector<PatternIndex>& output(StateIndex state) const;

  /// Children of a state in byte order, as (byte, target) pairs.
  const std::map<std::uint8_t, StateIndex>& children(StateIndex state) const;

  /// The dense renumbering both automata use (§5.1): new ids of all states,
  /// accepting ones exactly {0..f-1}, each group in trie order. Sets
  /// `num_accepting` to f. Requires finalize().
  std::vector<StateIndex> accepting_first_ids(
      std::uint32_t& num_accepting) const;

  static constexpr StateIndex root() noexcept { return 0; }

 private:
  struct Node {
    std::map<std::uint8_t, StateIndex> children;
    std::vector<PatternIndex> output;  // Propagated after finalize().
    StateIndex fail = kNoState;
    std::uint32_t depth = 0;
  };

  std::vector<Node> nodes_;
  std::size_t inserted_ = 0;
  bool finalized_ = false;
};

}  // namespace dpisvc::ac
