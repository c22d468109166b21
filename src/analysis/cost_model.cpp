#include "analysis/cost_model.hpp"

#include <algorithm>
#include <map>
#include <queue>

#include "regex/program.hpp"

namespace dpisvc::analysis {

namespace {

/// AST walk for the structural risk flags. `under_unbounded` is true when an
/// ancestor repeat has no upper bound — a wide class there is the signature
/// of combined-DFA state explosion.
void walk_flags(const regex::Node& node, bool under_unbounded, RegexCost& out) {
  switch (node.kind) {
    case regex::NodeKind::kClass: {
      const std::size_t size = node.cls.bits.count();
      out.max_class_size = std::max(out.max_class_size, size);
      if (under_unbounded && size >= 128) {
        out.large_class_repeat = true;
      }
      break;
    }
    case regex::NodeKind::kRepeat: {
      const bool unbounded = node.max < 0;
      if (unbounded) out.has_unbounded_repeat = true;
      if (node.child) {
        walk_flags(*node.child, under_unbounded || unbounded, out);
      }
      break;
    }
    case regex::NodeKind::kConcat:
    case regex::NodeKind::kAlternate:
      for (const auto& child : node.children) {
        walk_flags(*child, under_unbounded, out);
      }
      break;
    default:
      break;
  }
}

/// Epsilon closure over the Pike-VM program: expands kSplit/kJmp and the
/// zero-width assertions, collecting the byte-consuming frontier plus a
/// match flag. kLineStart is traversable only in the position-0 closure;
/// kLineEnd is treated as always traversable (an over-approximation — the
/// estimator predicts an upper bound of states, never an undercount).
struct Frontier {
  std::vector<std::uint32_t> byte_pcs;  // sorted, deduped
  bool match = false;
};

Frontier closure(const std::vector<regex::Inst>& code,
                 const std::vector<std::uint32_t>& pcs, bool at_start) {
  // Iterative (explicit stack): adversarial nested counted repeats can chain
  // millions of kSplit/kJmp instructions, which would overflow the call
  // stack if this recursed.
  Frontier out;
  std::vector<bool> seen(code.size(), false);
  std::vector<std::uint32_t> stack(pcs.rbegin(), pcs.rend());
  while (!stack.empty()) {
    const std::uint32_t pc = stack.back();
    stack.pop_back();
    if (pc >= code.size() || seen[pc]) continue;
    seen[pc] = true;
    const regex::Inst& inst = code[pc];
    switch (inst.op) {
      case regex::Op::kByte:
        out.byte_pcs.push_back(pc);
        break;
      case regex::Op::kSplit:
        stack.push_back(inst.y);
        stack.push_back(inst.x);
        break;
      case regex::Op::kJmp:
        stack.push_back(inst.x);
        break;
      case regex::Op::kLineStart:
        if (at_start) stack.push_back(pc + 1);
        break;
      case regex::Op::kLineEnd:
        stack.push_back(pc + 1);
        break;
      case regex::Op::kMatch:
        out.match = true;
        break;
    }
  }
  std::sort(out.byte_pcs.begin(), out.byte_pcs.end());
  return out;
}

/// DFA state identity for the subset construction: the consuming frontier
/// plus the match flag (encoded as a sentinel past any valid pc).
std::vector<std::uint32_t> state_key(const Frontier& f, std::size_t code_size) {
  std::vector<std::uint32_t> key = f.byte_pcs;
  if (f.match) key.push_back(static_cast<std::uint32_t>(code_size) + 1);
  return key;
}

/// Saturating arithmetic for the AST-level size prediction: a nested counted
/// repeat can express sizes far beyond any integer, and the only question we
/// need answered is "does it exceed the cap".
constexpr std::size_t kSaturated = static_cast<std::size_t>(-1) >> 2;

std::size_t sat_add(std::size_t a, std::size_t b) {
  return (a >= kSaturated - b) ? kSaturated : a + b;
}

std::size_t sat_mul(std::size_t a, std::size_t b) {
  if (a == 0 || b == 0) return 0;
  return (a >= kSaturated / b) ? kSaturated : a * b;
}

struct PredictedCounts {
  std::size_t insts = 0;  ///< total instructions the emitter would produce
  std::size_t bytes = 0;  ///< kByte instructions among them
};

/// Replicates Program::compile_node's emission counts arithmetically. Kept in
/// lock-step with the emitter; analysis_test asserts equality against actual
/// compiled programs.
PredictedCounts predict_counts(const regex::Node& node) {
  PredictedCounts out;
  switch (node.kind) {
    case regex::NodeKind::kEmpty:
      break;
    case regex::NodeKind::kClass:
      out.insts = out.bytes = 1;
      break;
    case regex::NodeKind::kConcat:
      for (const auto& child : node.children) {
        const PredictedCounts c = predict_counts(*child);
        out.insts = sat_add(out.insts, c.insts);
        out.bytes = sat_add(out.bytes, c.bytes);
      }
      break;
    case regex::NodeKind::kAlternate: {
      for (const auto& child : node.children) {
        const PredictedCounts c = predict_counts(*child);
        out.insts = sat_add(out.insts, c.insts);
        out.bytes = sat_add(out.bytes, c.bytes);
      }
      // One split + one jmp per non-last branch.
      if (!node.children.empty()) {
        out.insts = sat_add(out.insts, 2 * (node.children.size() - 1));
      }
      break;
    }
    case regex::NodeKind::kRepeat: {
      const PredictedCounts c =
          node.child ? predict_counts(*node.child) : PredictedCounts{};
      const auto min = static_cast<std::size_t>(node.min);
      out.insts = sat_mul(min, c.insts);
      out.bytes = sat_mul(min, c.bytes);
      if (node.max < 0) {
        // split + body + jmp.
        out.insts = sat_add(out.insts, sat_add(c.insts, 2));
        out.bytes = sat_add(out.bytes, c.bytes);
      } else {
        // (max - min) copies of split + body.
        const auto opt = static_cast<std::size_t>(node.max) - min;
        out.insts = sat_add(out.insts, sat_mul(opt, sat_add(c.insts, 1)));
        out.bytes = sat_add(out.bytes, sat_mul(opt, c.bytes));
      }
      break;
    }
    case regex::NodeKind::kLineStart:
    case regex::NodeKind::kLineEnd:
      out.insts = 1;
      break;
  }
  return out;
}

/// Collects the distinct CharSets of the AST (expansion only duplicates
/// them, so this equals the distinct sets of the compiled program).
void collect_classes(const regex::Node& node,
                     std::vector<regex::CharSet>& out) {
  switch (node.kind) {
    case regex::NodeKind::kClass: {
      for (const regex::CharSet& s : out) {
        if (s.bits == node.cls.bits) return;
      }
      out.push_back(node.cls);
      break;
    }
    case regex::NodeKind::kRepeat:
      if (node.child) collect_classes(*node.child, out);
      break;
    case regex::NodeKind::kConcat:
    case regex::NodeKind::kAlternate:
      for (const auto& child : node.children) {
        collect_classes(*child, out);
      }
      break;
    default:
      break;
  }
}

}  // namespace

RegexCost analyze_regex(std::string_view expression,
                        const RegexCostOptions& options) {
  RegexCost cost;
  regex::NodePtr ast = regex::parse(expression, options.parse);  // may throw
  walk_flags(*ast, /*under_unbounded=*/false, cost);

  cost.anchors = regex::extract_anchors(*ast, options.anchors);
  cost.anchor_count = cost.anchors.size();
  for (const std::string& a : cost.anchors) {
    cost.longest_anchor = std::max(cost.longest_anchor, a.size());
  }
  cost.anchorless = cost.anchors.empty();

  const PredictedCounts predicted = predict_counts(*ast);
  cost.nfa_instructions = sat_add(predicted.insts, 1);  // + the kMatch
  cost.closure_width_bound = sat_add(predicted.bytes, 1);

  // Byte-equivalence classes: two bytes transition identically iff every
  // CharSet in the program agrees on them. Partition by per-byte signature
  // over the distinct AST classes (repeat expansion only duplicates sets).
  std::vector<regex::CharSet> sets;
  collect_classes(*ast, sets);
  std::map<std::vector<std::uint64_t>, std::vector<std::uint8_t>> classes;
  const std::size_t words = (sets.size() + 63) / 64;
  for (unsigned b = 0; b < 256; ++b) {
    std::vector<std::uint64_t> sig(words == 0 ? 1 : words, 0);
    for (std::size_t i = 0; i < sets.size(); ++i) {
      if (sets[i].contains(static_cast<std::uint8_t>(b))) {
        sig[i >> 6] |= 1ull << (i & 63);
      }
    }
    classes[std::move(sig)].push_back(static_cast<std::uint8_t>(b));
  }
  cost.byte_classes = classes.size();

  if (cost.nfa_instructions > options.max_program_size) {
    // Never materialize a program this size — predicting the blow-up without
    // allocating it is the point of admission analysis.
    cost.program_oversized = true;
    cost.dfa_capped = true;
    cost.dfa_states = 0;
    return cost;
  }

  const regex::Program program = regex::Program::compile(*ast);
  const std::vector<regex::Inst>& code = program.code();
  std::vector<std::uint8_t> representatives;
  representatives.reserve(classes.size());
  for (const auto& [sig, members] : classes) {
    representatives.push_back(members.front());
  }

  // Bounded subset construction with unanchored-search semantics: a scanning
  // DFA restarts a match attempt at every byte, so the fresh-start closure is
  // folded into every successor state.
  const Frontier base = closure(code, {0}, /*at_start=*/false);
  const Frontier start = closure(code, {0}, /*at_start=*/true);

  std::map<std::vector<std::uint32_t>, std::uint32_t> dfa;
  std::queue<Frontier> worklist;
  auto intern = [&](Frontier f) {
    auto [it, inserted] = dfa.emplace(state_key(f, code.size()),
                                      static_cast<std::uint32_t>(dfa.size()));
    if (inserted && dfa.size() <= options.max_dfa_states) {
      worklist.push(std::move(f));
    }
    return it->second;
  };
  intern(start);
  while (!worklist.empty() && !cost.dfa_capped) {
    const Frontier current = std::move(worklist.front());
    worklist.pop();
    for (std::uint8_t rep : representatives) {
      std::vector<std::uint32_t> moved;
      for (std::uint32_t pc : current.byte_pcs) {
        if (code[pc].cls.contains(rep)) moved.push_back(pc + 1);
      }
      Frontier next = closure(code, moved, /*at_start=*/false);
      // Fold the restart threads in (unanchored search).
      next.byte_pcs.insert(next.byte_pcs.end(), base.byte_pcs.begin(),
                           base.byte_pcs.end());
      std::sort(next.byte_pcs.begin(), next.byte_pcs.end());
      next.byte_pcs.erase(
          std::unique(next.byte_pcs.begin(), next.byte_pcs.end()),
          next.byte_pcs.end());
      next.match = next.match || base.match;
      intern(std::move(next));
      if (dfa.size() > options.max_dfa_states) {
        cost.dfa_capped = true;
        break;
      }
    }
  }
  cost.dfa_states = std::min(dfa.size(), options.max_dfa_states);
  return cost;
}

std::uint32_t TrieEstimator::child_of(std::uint32_t node,
                                      std::uint8_t byte) const {
  const auto& kids = nodes_[node].children;
  auto it = std::lower_bound(
      kids.begin(), kids.end(), byte,
      [](const std::pair<std::uint8_t, std::uint32_t>& e, std::uint8_t b) {
        return e.first < b;
      });
  if (it == kids.end() || it->first != byte) return UINT32_MAX;
  return it->second;
}

std::size_t TrieEstimator::insert(std::string_view bytes, std::size_t weight) {
  std::size_t created = 0;
  std::uint32_t node = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const auto byte = static_cast<std::uint8_t>(bytes[i]);
    std::uint32_t next = child_of(node, byte);
    if (next == UINT32_MAX) {
      next = static_cast<std::uint32_t>(nodes_.size());
      NodeRec rec;
      rec.depth = nodes_[node].depth + 1;
      auto& kids = nodes_[node].children;
      kids.insert(std::lower_bound(
                      kids.begin(), kids.end(), byte,
                      [](const std::pair<std::uint8_t, std::uint32_t>& e,
                         std::uint8_t b) { return e.first < b; }),
                  {byte, next});
      nodes_.push_back(std::move(rec));
      ++created;
    } else {
      shared_prefix_bytes_ += created == 0 ? 1 : 0;
    }
    node = next;
  }
  nodes_[node].ends_here += 1;
  nodes_[node].weight_here += weight;
  ++pattern_count_;
  total_bytes_ += bytes.size();
  return created;
}

TrieStats TrieEstimator::stats() const {
  TrieStats out;
  out.states = nodes_.size();
  out.edges = nodes_.size() - 1;
  out.pattern_count = pattern_count_;
  out.total_bytes = total_bytes_;
  out.shared_prefix_bytes = shared_prefix_bytes_;

  // Classic failure-link BFS, but propagating integer totals instead of
  // materialized output sets: ends_total(v) = ends_here(v) + ends_total(
  // fail(v)). fail(v) is strictly shallower than v, so in BFS order its
  // total is final when v is dequeued.
  std::vector<std::uint32_t> fail(nodes_.size(), 0);
  std::vector<std::uint64_t> ends_total(nodes_.size(), 0);
  std::vector<std::uint64_t> weight_total(nodes_.size(), 0);
  std::queue<std::uint32_t> queue;
  for (const auto& [byte, child] : nodes_[0].children) {
    (void)byte;
    fail[child] = 0;
    queue.push(child);
  }
  while (!queue.empty()) {
    const std::uint32_t u = queue.front();
    queue.pop();
    ends_total[u] = nodes_[u].ends_here + ends_total[fail[u]];
    weight_total[u] = nodes_[u].weight_here + weight_total[fail[u]];
    for (const auto& [byte, v] : nodes_[u].children) {
      std::uint32_t f = fail[u];
      std::uint32_t target = child_of(f, byte);
      while (target == UINT32_MAX && f != 0) {
        f = fail[f];
        target = child_of(f, byte);
      }
      fail[v] = target == UINT32_MAX ? 0 : target;
      queue.push(v);
    }
  }
  for (const NodeRec& node : nodes_) {
    out.max_depth = std::max<std::size_t>(out.max_depth, node.depth);
  }
  out.states_per_depth.assign(out.max_depth + 1, 0);
  out.edge_labels_per_depth.assign(out.max_depth + 1, {});
  for (std::size_t v = 0; v < nodes_.size(); ++v) {
    ++out.states_per_depth[nodes_[v].depth];
    for (const auto& [byte, child] : nodes_[v].children) {
      out.edge_labels_per_depth[nodes_[v].depth].set(byte);
    }
    if (ends_total[v] > 0) {
      ++out.accepting;
      out.match_entries += static_cast<std::size_t>(ends_total[v]);
      out.weighted_match_entries += static_cast<std::size_t>(weight_total[v]);
    }
  }
  out.suffix_overlap_entries = out.match_entries - out.pattern_count;
  return out;
}

}  // namespace dpisvc::analysis
