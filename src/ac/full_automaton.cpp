#include "ac/full_automaton.hpp"

#include <deque>

#include "common/invariant.hpp"

namespace dpisvc::ac {

FullAutomaton FullAutomaton::build(Trie& trie) {
  trie.finalize();
  const auto n = static_cast<std::uint32_t>(trie.num_states());

  // Pass 1: renumber states so accepting ones are dense in {0..f-1}.
  std::uint32_t f = 0;
  const std::vector<StateIndex> new_id = trie.accepting_first_ids(f);

  FullAutomaton out;
  out.num_states_ = n;
  out.num_accepting_ = f;
  out.start_ = new_id[Trie::root()];
  out.table_.assign(static_cast<std::size_t>(n) * 256u, 0);
  out.match_table_.resize(f);
  out.depth_.assign(n, 0);

  for (StateIndex s = 0; s < n; ++s) {
    out.depth_[new_id[s]] = trie.depth(s);
    if (!trie.output(s).empty()) {
      out.match_table_[new_id[s]] = trie.output(s);
    }
  }

  // Pass 2: full transition table via BFS. delta(s, b) = goto(s, b) if the
  // trie has a forward edge, else delta(fail(s), b) — which is already
  // complete because BFS processes states in non-decreasing depth order.
  std::vector<StateIndex> delta_row(256);
  std::deque<StateIndex> queue;
  {
    // Root row: forward edges or self-loop.
    const StateIndex root = Trie::root();
    for (unsigned b = 0; b < 256; ++b) {
      const StateIndex via = trie.forward(root, static_cast<std::uint8_t>(b));
      out.table_[static_cast<std::size_t>(new_id[root]) * 256u + b] =
          via == kNoState ? new_id[root] : new_id[via];
    }
    for (const auto& [byte, child] : trie.children(root)) {
      queue.push_back(child);
    }
  }
  while (!queue.empty()) {
    const StateIndex s = queue.front();
    queue.pop_front();
    const std::size_t row = static_cast<std::size_t>(new_id[s]) * 256u;
    const std::size_t fail_row =
        static_cast<std::size_t>(new_id[trie.fail(s)]) * 256u;
    for (unsigned b = 0; b < 256; ++b) {
      const StateIndex via = trie.forward(s, static_cast<std::uint8_t>(b));
      out.table_[row + b] =
          via == kNoState ? out.table_[fail_row + b] : new_id[via];
    }
    for (const auto& [byte, child] : trie.children(s)) {
      queue.push_back(child);
    }
  }
#if defined(DPISVC_CHECK_INVARIANTS) && DPISVC_CHECK_INVARIANTS
  // §5.1 post-condition: every table entry is a state.
  for (StateIndex target : out.table_) {
    DPISVC_ASSERT_INVARIANT(target < n,
                            "transition table entry must name a valid state");
  }
#endif
  return out;
}

std::size_t FullAutomaton::memory_bytes() const noexcept {
  std::size_t total = table_.size() * sizeof(StateIndex);
  total += depth_.size() * sizeof(std::uint32_t);
  for (const auto& row : match_table_) {
    total += sizeof(row) + row.size() * sizeof(PatternIndex);
  }
  return total;
}

}  // namespace dpisvc::ac
