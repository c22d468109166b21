// Pattern-set admission analysis: predict the combined engine an EngineSpec
// would compile to — states, accepting states, match-row totals, the bytes
// of the engine and of its hot kernel, and the size of the paper's full
// table — and police it against a configurable budget, all without
// compiling the spec.
//
// The analyzer plays two roles:
//
//  - Admission control (src/service/controller.cpp): every add_patterns
//    request is analyzed against the controller's budget before the
//    PatternDb is touched. Violations reject the request fail-closed with a
//    stable diagnostic code; already-admitted tenants keep scanning on the
//    previous engine.
//  - Offline linting (tools/dpisvc_lint): the same analysis over a pattern
//    file or the built-in seed workloads, with --calibrate cross-checking
//    every prediction against an actual compile.
//
// Consistency contract (fuzz_pattern_analysis enforces it): if analyze()
// reports no violation, dpi::Engine::compile of the same spec with the same
// EngineConfig succeeds. The reverse is deliberately not promised — the
// analyzer is allowed to be stricter (budgets, oversized-program guards).
//
// Diagnostics reuse verify::Diagnostic so dpisvc_lint, dpisvc_check and the
// controller speak one code scheme.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/cost_model.hpp"
#include "dpi/engine.hpp"
#include "verify/verifier.hpp"

namespace dpisvc::analysis {

/// Budget knobs. 0 (or false) disables the corresponding check, so a
/// default-constructed budget admits everything a compile would accept.
struct AnalysisBudget {
  std::size_t max_automaton_states = 0;   ///< predicted combined AC states
  /// Predicted resident bytes of a regular engine (automaton and tables
  /// plus the hot kernel); a dedicated engine is never larger.
  std::size_t max_memory_bytes = 0;
  std::size_t max_regex_nfa_instructions = 0;  ///< per expression
  std::size_t max_regex_dfa_states = 0;   ///< per expression (capped == over)
  std::size_t max_patterns_per_middlebox = 0;  ///< exact + regex per tenant
  bool reject_anchorless_regex = false;   ///< no AC pre-filter possible
  bool reject_unbounded_repeat = false;   ///< '*' / '+' / '{m,}'
  bool reject_large_class_repeat = false; ///< >=128-byte class under one
};

struct AnalysisOptions {
  AnalysisBudget budget;
  /// Must match the EngineConfig the spec will actually be compiled with:
  /// anchor_min_length changes the distinct-string set and max_anchor_bits
  /// is a hard compile failure. hot_kernel does not matter: the memory
  /// budget always applies to the regular engine.
  dpi::EngineConfig engine;
  /// Per-expression subset-construction exploration cap (see RegexCostOptions).
  std::size_t dfa_state_cap = 2048;
  /// Per-expression Pike-VM materialization cap (see RegexCostOptions).
  std::size_t max_program_size = 1u << 20;
};

/// One analyzed expression, parallel to EngineSpec::regex_patterns. When
/// `error` is non-empty the expression failed to parse and `cost` is
/// default-initialized.
struct RegexReport {
  dpi::MiddleboxId middlebox = 0;
  dpi::PatternId pattern_id = 0;
  RegexCost cost;
  std::string error;  ///< SyntaxError message, empty if parsed
};

struct PatternSetReport {
  // --- predicted combined-engine artifacts (exact unless noted) ------------
  std::size_t distinct_strings = 0;     ///< exact patterns + regex anchors
  std::size_t predicted_states = 0;     ///< == Engine::num_automaton_states()
  std::size_t predicted_accepting = 0;  ///< == num_accepting_states()
  std::size_t predicted_match_entries = 0;   ///< automaton match-row total
  std::size_t predicted_target_entries = 0;  ///< engine accept-target total
  std::size_t anchor_bits = 0;          ///< distinct anchor strings
  /// The paper's full-table representation with the same tables (Table 2's
  /// "Space"); no engine holds it.
  std::size_t predicted_memory_full = 0;
  std::size_t predicted_memory_compressed = 0;  ///< == Engine::memory_bytes()
  /// == kernel_memory_bytes() of a regular engine (0 for a dedicated one).
  std::size_t predicted_kernel_memory = 0;
  std::size_t total_regex_instructions = 0;  ///< saturating sum
  TrieStats trie;
  std::vector<RegexReport> regexes;

  // --- verdict -------------------------------------------------------------
  /// Fatal findings; admission rejects when non-empty. Codes:
  /// "middlebox-id-out-of-range", "duplicate-middlebox-id",
  /// "pattern-unknown-middlebox", "pattern-empty", "pattern-too-long",
  /// "regex-unknown-middlebox", "regex-syntax-error", "anchor-bits-exceeded",
  /// "chain-unknown-middlebox", "states-over-budget", "memory-over-budget",
  /// "regex-nfa-over-budget", "regex-dfa-blowup", "regex-program-too-large",
  /// "middlebox-quota-exceeded", "regex-anchorless",
  /// "regex-unbounded-repeat", "regex-large-class-repeat".
  std::vector<verify::Diagnostic> violations;
  /// Advisory findings; never reject. Codes: "cross-tenant-duplicate",
  /// "duplicate-registration", "regex-anchorless",
  /// "regex-unbounded-repeat", "regex-large-class-repeat",
  /// "regex-dfa-capped".
  std::vector<verify::Diagnostic> warnings;

  bool admissible() const noexcept { return violations.empty(); }

  /// What a regular engine holds resident; the memory budget's figure.
  std::size_t predicted_resident_memory() const noexcept {
    return predicted_memory_compressed + predicted_kernel_memory;
  }
};

/// Analyzes a full spec. Never throws on bad pattern input — malformed
/// regexes, unknown middleboxes etc. become violations.
PatternSetReport analyze(const dpi::EngineSpec& spec,
                         const AnalysisOptions& options = {});

/// The memory-model constant documented for the calibration test: predicted
/// memory is exact for the automaton tables; only allocator slack is outside
/// the model, so predictions must equal Engine::memory_bytes() and
/// kernel_memory_bytes() exactly.
/// (Kept as a named factor so the docs and tests share one number.)
inline constexpr double kMemoryCalibrationFactor = 1.0;

}  // namespace dpisvc::analysis
