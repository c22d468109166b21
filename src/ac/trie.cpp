#include "ac/trie.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace dpisvc::ac {

Trie::Trie() { nodes_.emplace_back(); }

void Trie::insert(BytesView pattern, PatternIndex index) {
  if (finalized_) {
    throw std::logic_error("Trie::insert after finalize");
  }
  if (pattern.empty()) {
    throw std::invalid_argument("Trie::insert: empty pattern");
  }
  StateIndex at = root();
  for (std::uint8_t byte : pattern) {
    auto it = nodes_[at].children.find(byte);
    if (it == nodes_[at].children.end()) {
      const auto next = static_cast<StateIndex>(nodes_.size());
      nodes_.emplace_back();
      nodes_.back().depth = nodes_[at].depth + 1;
      nodes_[at].children.emplace(byte, next);
      at = next;
    } else {
      at = it->second;
    }
  }
  nodes_[at].output.push_back(index);
  ++inserted_;
}

void Trie::insert(std::string_view pattern, PatternIndex index) {
  insert(BytesView(reinterpret_cast<const std::uint8_t*>(pattern.data()),
                   pattern.size()),
         index);
}

void Trie::finalize() {
  if (finalized_) return;
  // BFS from the root; a node's failure target is already final when the
  // node is dequeued, so output propagation composes transitively.
  std::deque<StateIndex> queue;
  nodes_[root()].fail = root();
  for (const auto& [byte, child] : nodes_[root()].children) {
    nodes_[child].fail = root();
    queue.push_back(child);
  }
  while (!queue.empty()) {
    const StateIndex at = queue.front();
    queue.pop_front();
    // Propagate the failure target's output: L(fail(at)) is a suffix of
    // L(at), so every pattern matched there is matched here too (§5.1).
    const auto& fail_output = nodes_[nodes_[at].fail].output;
    auto& out = nodes_[at].output;
    out.insert(out.end(), fail_output.begin(), fail_output.end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());

    for (const auto& [byte, child] : nodes_[at].children) {
      // Walk failure links until a state with a `byte` child (or the root).
      StateIndex f = nodes_[at].fail;
      while (true) {
        const StateIndex via = forward(f, byte);
        if (via != kNoState && via != child) {
          nodes_[child].fail = via;
          break;
        }
        if (f == root()) {
          nodes_[child].fail = root();
          break;
        }
        f = nodes_[f].fail;
      }
      queue.push_back(child);
    }
  }
  finalized_ = true;
}

StateIndex Trie::forward(StateIndex state, std::uint8_t byte) const {
  const auto& children = nodes_[state].children;
  auto it = children.find(byte);
  return it == children.end() ? kNoState : it->second;
}

StateIndex Trie::fail(StateIndex state) const { return nodes_[state].fail; }

std::uint32_t Trie::depth(StateIndex state) const {
  return nodes_[state].depth;
}

const std::vector<PatternIndex>& Trie::output(StateIndex state) const {
  return nodes_[state].output;
}

const std::map<std::uint8_t, StateIndex>& Trie::children(
    StateIndex state) const {
  return nodes_[state].children;
}

std::vector<StateIndex> Trie::accepting_first_ids(
    std::uint32_t& num_accepting) const {
  std::vector<StateIndex> new_id(nodes_.size());
  num_accepting = 0;
  for (StateIndex s = 0; s < nodes_.size(); ++s) {
    if (!nodes_[s].output.empty()) new_id[s] = num_accepting++;
  }
  StateIndex next_plain = num_accepting;
  for (StateIndex s = 0; s < nodes_.size(); ++s) {
    if (nodes_[s].output.empty()) new_id[s] = next_plain++;
  }
  return new_id;
}

}  // namespace dpisvc::ac
