#include "ac/compressed_automaton.hpp"

namespace dpisvc::ac {

CompressedAutomaton CompressedAutomaton::build(Trie& trie) {
  trie.finalize();
  const auto n = static_cast<std::uint32_t>(trie.num_states());

  // Same dense renumbering as FullAutomaton so accepting ids agree.
  std::uint32_t f = 0;
  const std::vector<StateIndex> new_id = trie.accepting_first_ids(f);

  CompressedAutomaton out;
  out.num_states_ = n;
  out.num_accepting_ = f;
  out.start_ = new_id[Trie::root()];
  out.ranges_.resize(n);
  out.fail_.assign(n, 0);
  out.match_table_.resize(f);
  out.depth_.assign(n, 0);

  out.edges_.reserve(n - 1);  // a trie of n states has n - 1 edges

  // Emit edges grouped by renumbered state id. Build an inverse map first.
  std::vector<StateIndex> old_of(n);
  for (StateIndex s = 0; s < n; ++s) {
    old_of[new_id[s]] = s;
  }
  for (StateIndex ns = 0; ns < n; ++ns) {
    const StateIndex os = old_of[ns];
    out.ranges_[ns].begin = static_cast<std::uint32_t>(out.edges_.size());
    for (const auto& [byte, child] : trie.children(os)) {
      out.edges_.push_back(Edge{byte, new_id[child]});
    }
    out.ranges_[ns].end = static_cast<std::uint32_t>(out.edges_.size());
    out.fail_[ns] = new_id[trie.fail(os)];
    out.depth_[ns] = trie.depth(os);
    if (!trie.output(os).empty()) {
      out.match_table_[ns] = trie.output(os);
    }
  }
  return out;
}

StateIndex CompressedAutomaton::step(StateIndex state,
                                     std::uint8_t byte) const noexcept {
  while (true) {
    const EdgeRange range = ranges_[state];
    // Binary search the sorted edge slice.
    std::uint32_t lo = range.begin;
    std::uint32_t hi = range.end;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (edges_[mid].byte < byte) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < range.end && edges_[lo].byte == byte) {
      return edges_[lo].target;
    }
    if (state == start_) {
      return start_;  // No edge from the root: stay.
    }
    state = fail_[state];
  }
}

std::size_t CompressedAutomaton::memory_bytes() const noexcept {
  std::size_t total = ranges_.size() * sizeof(EdgeRange);
  total += edges_.size() * sizeof(Edge);
  total += fail_.size() * sizeof(StateIndex);
  total += depth_.size() * sizeof(std::uint32_t);
  for (const auto& row : match_table_) {
    total += sizeof(row) + row.size() * sizeof(PatternIndex);
  }
  return total;
}

}  // namespace dpisvc::ac
