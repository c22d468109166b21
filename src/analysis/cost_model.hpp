// Static cost models for pattern-set admission (§ "DPI as a service" pooling).
//
// When many middleboxes share one DPI engine, a single tenant's pattern set
// can blow up the combined automaton for everyone. These models predict the
// blow-up *before* anything is compiled:
//
//  - RegexCost walks the AST and the compiled Pike-VM program of a single
//    expression: NFA instruction count, an epsilon-closure width bound (the
//    largest thread frontier the VM can ever hold), and a bounded subset
//    construction over the program that estimates how many DFA states the
//    expression would contribute to a determinized engine. Structural risk
//    flags (unbounded repeats, large classes under unbounded repeats,
//    anchorless expressions) catch the classic ".*[a-z]+" state-explosion
//    drivers even when the bounded exploration gives up.
//  - TrieEstimator models the shared Aho-Corasick automaton incrementally:
//    insert() returns the marginal state growth of each pattern (shared
//    prefixes are free), and stats() computes — via its own failure-link
//    BFS, sharing no code with src/ac — the exact state/accepting counts and
//    propagated match-row totals the real automaton materializes, plus the
//    per-depth state counts and edge labels the hot kernel's size depends
//    on.
//
// The estimator is deliberately exact where exactness is cheap (trie states,
// accepting states, match-row entries are reproduced by definition) and a
// documented upper-bound elsewhere; tests/analysis_test.cpp calibrates both
// against actual src/ac + dpi::Engine compilation of the seed workloads.
#pragma once

#include <bitset>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "regex/anchors.hpp"
#include "regex/parser.hpp"

namespace dpisvc::analysis {

struct RegexCostOptions {
  regex::ParseOptions parse;      ///< must match the engine's compile options
  regex::AnchorOptions anchors;   ///< must match EngineConfig::anchor_min_length
  /// Bounded subset-construction exploration cap. Exploration stops (and
  /// RegexCost::dfa_capped is set) once this many DFA states were discovered;
  /// a capped result is itself the blow-up signal.
  std::size_t max_dfa_states = 2048;
  /// Hard cap on the Pike-VM program size the model is willing to actually
  /// compile. Nested counted repeats expand multiplicatively ("(a{999}){999}"
  /// is ~10^6 instructions from 12 bytes of input), so the instruction count
  /// is first predicted arithmetically from the AST; beyond this cap the
  /// program is never materialized (RegexCost::program_oversized) — this is
  /// what lets admission control reject a compile-time memory bomb without
  /// detonating it.
  std::size_t max_program_size = 1u << 20;
};

struct RegexCost {
  /// Pike-VM program length. Predicted exactly from the AST (the emitter's
  /// instruction counts are replicated arithmetically, saturating), so it is
  /// available even when the program was too large to materialize; equals
  /// Program::compile(...).size() whenever program_oversized is false.
  std::size_t nfa_instructions = 0;
  /// Predicted program size exceeded RegexCostOptions::max_program_size; the
  /// program was not compiled and dfa_states is meaningless (dfa_capped is
  /// set — an expression this large is a blow-up by definition).
  bool program_oversized = false;
  /// Upper bound on simultaneous VM threads after epsilon closure: the number
  /// of byte-consuming instructions plus the match instruction. Proportional
  /// to worst-case per-byte scan cost of the NFA simulation.
  std::size_t closure_width_bound = 0;
  /// DFA states discovered by bounded subset construction over the program
  /// (unanchored-search semantics: the start closure is folded into every
  /// state, as a scanning DFA would). Exact when dfa_capped is false.
  std::size_t dfa_states = 0;
  bool dfa_capped = false;  ///< exploration hit max_dfa_states
  /// Byte-equivalence classes of the program: bytes indistinguishable by
  /// every CharSet collapse into one class; DFA fan-out is bounded by this.
  std::size_t byte_classes = 0;
  std::size_t anchor_count = 0;    ///< literal anchors extractable (§5.3)
  std::size_t longest_anchor = 0;  ///< length of the longest anchor
  /// The anchor strings themselves, exactly as the engine would register
  /// them into the shared AC set (the analyzer feeds these to TrieEstimator).
  std::vector<std::string> anchors;
  /// No anchor of at least AnchorOptions::min_length exists, so the engine
  /// must evaluate this expression against every flow with no AC pre-filter.
  bool anchorless = false;
  bool has_unbounded_repeat = false;  ///< '*', '+' or '{m,}' anywhere
  std::size_t max_class_size = 0;     ///< cardinality of the widest class
  /// A class of >= 128 bytes sits under an unbounded repeat — the structural
  /// signature of combined-DFA state explosion (e.g. ".*foo").
  bool large_class_repeat = false;
};

/// Analyzes one expression. Throws regex::SyntaxError on malformed input —
/// the same exception Engine::compile would surface.
RegexCost analyze_regex(std::string_view expression,
                        const RegexCostOptions& options = {});

/// Aggregate statistics of the predicted shared AC automaton; all counts are
/// exact for the trie the engine would build over the same distinct strings.
struct TrieStats {
  std::size_t states = 1;          ///< incl. root; == automaton num_states
  std::size_t accepting = 0;       ///< states with non-empty propagated output
  std::size_t edges = 0;           ///< goto edges (== states - 1)
  std::size_t pattern_count = 0;   ///< distinct strings inserted
  std::size_t total_bytes = 0;     ///< sum of pattern lengths
  std::size_t shared_prefix_bytes = 0;  ///< bytes absorbed by existing states
  std::size_t max_depth = 0;
  /// Total match-row entries after suffix propagation at distinct-string
  /// granularity (one entry per string per accepting state whose failure
  /// chain ends it) — the row total the automaton materializes.
  std::size_t match_entries = 0;
  /// Same propagation weighted by caller-supplied per-string weights (the
  /// analyzer passes registration counts + anchor bits, predicting the
  /// engine's accept_targets row total).
  std::size_t weighted_match_entries = 0;
  /// match_entries - pattern_count: propagated entries caused by one string
  /// being a proper suffix of a path to another state (cross-set overlap).
  std::size_t suffix_overlap_entries = 0;
  /// Per depth (index = depth, 0..max_depth): the number of states, and the
  /// bytes labelling edges out of those states.
  std::vector<std::size_t> states_per_depth = {1};
  std::vector<std::bitset<256>> edge_labels_per_depth = {{}};
};

/// Incremental prefix-trie model of the shared AC automaton. Shares no code
/// with src/ac on purpose: the calibration test proves this independent
/// derivation equals the real construction.
class TrieEstimator {
 public:
  /// Adds one distinct string; returns the number of NEW states it creates
  /// (0 for a duplicate or a prefix of an existing pattern). `weight` is the
  /// caller's per-string match-row weight (see TrieStats).
  std::size_t insert(std::string_view bytes, std::size_t weight = 1);

  std::size_t num_states() const noexcept { return nodes_.size(); }

  /// Runs the failure-link BFS and aggregates. Non-destructive; may be
  /// called repeatedly as patterns accumulate.
  TrieStats stats() const;

 private:
  struct NodeRec {
    std::vector<std::pair<std::uint8_t, std::uint32_t>> children;  // sorted
    std::uint32_t depth = 0;
    std::uint32_t ends_here = 0;       ///< distinct strings terminating here
    std::uint64_t weight_here = 0;     ///< summed weights of those strings
  };
  std::uint32_t child_of(std::uint32_t node, std::uint8_t byte) const;

  std::vector<NodeRec> nodes_ = {NodeRec{}};  // node 0 = root
  std::size_t pattern_count_ = 0;
  std::size_t total_bytes_ = 0;
  std::size_t shared_prefix_bytes_ = 0;
};

}  // namespace dpisvc::analysis
