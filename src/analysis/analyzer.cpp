#include "analysis/analyzer.hpp"

#include <algorithm>
#include <bit>
#include <bitset>
#include <map>
#include <set>
#include <sstream>

#include "ac/hot_kernel.hpp"
#include "regex/parser.hpp"

namespace dpisvc::analysis {

namespace {

constexpr std::size_t kSaturated = static_cast<std::size_t>(-1) >> 2;

std::size_t sat_add(std::size_t a, std::size_t b) {
  return (a >= kSaturated - b) ? kSaturated : a + b;
}

/// Same cap-and-truncate discipline as verify's Reporter: one systemic
/// problem (every pattern over quota) must not produce megabytes of output.
class Findings {
 public:
  explicit Findings(std::vector<verify::Diagnostic>& out, std::size_t cap = 32)
      : out_(out), cap_(cap) {}

  template <typename... Args>
  void add(const char* code, const Args&... args) {
    ++total_;
    if (out_.size() >= cap_) return;
    std::ostringstream os;
    (os << ... << args);
    out_.push_back(verify::Diagnostic{code, os.str()});
  }

  ~Findings() {
    if (total_ > cap_) {
      out_.push_back(verify::Diagnostic{
          "diagnostics-truncated",
          "suppressed " + std::to_string(total_ - cap_) + " further findings"});
    }
  }

 private:
  std::vector<verify::Diagnostic>& out_;
  std::size_t cap_;
  std::size_t total_ = 0;
};

// Compiled-artifact element sizes the memory model multiplies out. Where the
// type is public we take sizeof directly; CompressedAutomaton's EdgeRange
// {uint32, uint32} is private, so its size is mirrored here and
// cross-checked by the calibration test against actual memory_bytes().
constexpr std::size_t kEdgeRangeBytes = 8;
constexpr std::size_t kMatchRowOverhead = sizeof(std::vector<ac::PatternIndex>);
constexpr std::size_t kTargetRowOverhead =
    sizeof(std::vector<dpi::Engine::MatchTarget>);

/// HotKernel::memory_bytes() over the trie: the hot core is every state of
/// depth <= D for the largest D that fits ac::kMaxHotStates, with one byte
/// class per byte labelling an edge out of a hot state plus one for all
/// other bytes, and rows padded to a power of two.
std::size_t kernel_memory(const TrieStats& trie) {
  std::size_t hot = trie.states_per_depth[0];
  std::bitset<256> labels = trie.edge_labels_per_depth[0];
  for (std::size_t d = 1; d < trie.states_per_depth.size() &&
                          hot + trie.states_per_depth[d] <= ac::kMaxHotStates;
       ++d) {
    hot += trie.states_per_depth[d];
    labels |= trie.edge_labels_per_depth[d];
  }
  const std::size_t classes = labels.count() + (labels.all() ? 0 : 1);
  return hot * std::bit_ceil(classes) * sizeof(std::uint16_t) +
         trie.states * sizeof(std::uint16_t) + hot * sizeof(ac::StateIndex) +
         256 * sizeof(std::uint16_t);
}

/// Body split out so the Findings destructors (which append the
/// "diagnostics-truncated" marker) provably run before the report is
/// returned — NRVO is not guaranteed, and the fuzz harness asserts
/// byte-identical reports across repeated runs.
void analyze_into(const dpi::EngineSpec& spec, const AnalysisOptions& options,
                  PatternSetReport& report) {
  Findings violations(report.violations);
  Findings warnings(report.warnings);

  // --- middlebox profiles (mirrors Engine::compile's id validation) --------
  dpi::MiddleboxBitmap seen = 0;
  for (const auto& p : spec.middleboxes) {
    if (p.id == 0 || p.id > dpi::kMaxMiddleboxes) {
      violations.add("middlebox-id-out-of-range", "middlebox id ", p.id,
                     " outside 1..", dpi::kMaxMiddleboxes);
      continue;
    }
    if (seen & dpi::bitmap_of(p.id)) {
      violations.add("duplicate-middlebox-id", "middlebox id ", p.id,
                     " registered twice");
      continue;
    }
    seen |= dpi::bitmap_of(p.id);
  }
  const auto known = [&seen](dpi::MiddleboxId id) {
    return id >= 1 && id <= dpi::kMaxMiddleboxes &&
           (seen & dpi::bitmap_of(id)) != 0;
  };

  // --- exact patterns ------------------------------------------------------
  // Distinct bytes -> distinct (middlebox, rule) registrations; the engine
  // dedupes identical registrations the same way.
  std::map<std::string, std::set<std::pair<dpi::MiddleboxId, dpi::PatternId>>>
      exact_refs;
  std::map<dpi::MiddleboxId, std::size_t> per_middlebox;
  for (const auto& pat : spec.exact_patterns) {
    if (!known(pat.middlebox)) {
      violations.add("pattern-unknown-middlebox", "exact pattern (rule ",
                     pat.pattern_id, ") references unregistered middlebox ",
                     pat.middlebox);
    } else {
      ++per_middlebox[pat.middlebox];
    }
    if (pat.bytes.empty()) {
      violations.add("pattern-empty", "middlebox ", pat.middlebox, " rule ",
                     pat.pattern_id, " is the empty string");
      continue;
    }
    if (pat.bytes.size() > dpi::kMaxPatternBytes) {
      violations.add("pattern-too-long", "middlebox ", pat.middlebox, " rule ",
                     pat.pattern_id, " is ", pat.bytes.size(),
                     " bytes (limit ", dpi::kMaxPatternBytes, ")");
    }
    if (!exact_refs[pat.bytes].insert({pat.middlebox, pat.pattern_id}).second) {
      warnings.add("duplicate-registration", "middlebox ", pat.middlebox,
                   " rule ", pat.pattern_id,
                   " registers the same bytes twice (compile dedupes)");
    }
  }
  std::size_t shared_patterns = 0;
  for (const auto& [bytes, refs] : exact_refs) {
    std::set<dpi::MiddleboxId> owners;
    for (const auto& [mbox, rule] : refs) owners.insert(mbox);
    if (owners.size() > 1) ++shared_patterns;
  }
  if (shared_patterns > 0) {
    // §5.1's whole point: shared registrations cost one automaton entry.
    warnings.add("cross-tenant-duplicate", shared_patterns,
                 " distinct pattern(s) registered by multiple middleboxes "
                 "(deduplicated into one shared entry each)");
  }

  // --- regexes -------------------------------------------------------------
  RegexCostOptions ropts;
  ropts.anchors.min_length = options.engine.anchor_min_length;
  ropts.max_dfa_states = options.dfa_state_cap;
  ropts.max_program_size = options.max_program_size;
  std::set<std::string> anchor_strings;
  std::size_t anchor_occurrences = 0;
  std::size_t program_bytes = 0;
  for (const auto& re : spec.regex_patterns) {
    if (!known(re.middlebox)) {
      violations.add("regex-unknown-middlebox", "regex (rule ", re.pattern_id,
                     ") references unregistered middlebox ", re.middlebox);
    } else {
      ++per_middlebox[re.middlebox];
    }
    RegexReport rr;
    rr.middlebox = re.middlebox;
    rr.pattern_id = re.pattern_id;
    ropts.parse.case_insensitive = re.case_insensitive;
    try {
      rr.cost = analyze_regex(re.expression, ropts);
    } catch (const regex::SyntaxError& e) {
      rr.error = e.what();
      violations.add("regex-syntax-error", "middlebox ", re.middlebox,
                     " rule ", re.pattern_id, ": ", e.what());
      report.regexes.push_back(std::move(rr));
      continue;
    }
    const RegexCost& cost = rr.cost;
    report.total_regex_instructions =
        sat_add(report.total_regex_instructions, cost.nfa_instructions);
    program_bytes = sat_add(
        program_bytes, cost.program_oversized
                           ? kSaturated
                           : cost.nfa_instructions * sizeof(regex::Inst));
    anchor_occurrences += cost.anchor_count;
    for (const std::string& anchor : cost.anchors) {
      anchor_strings.insert(anchor);
    }

    const auto id = [&re] {
      std::ostringstream os;
      os << "middlebox " << re.middlebox << " rule " << re.pattern_id;
      return os.str();
    }();
    if (cost.program_oversized) {
      // Unconditionally fatal: materializing this program (which admission
      // into the PatternDb would eventually force on every engine compile)
      // is a memory bomb, whatever the budget says.
      violations.add("regex-program-too-large", id, " expands to ",
                     cost.nfa_instructions,
                     " NFA instructions (materialization cap ",
                     options.max_program_size, ")");
    }
    if (options.budget.max_regex_nfa_instructions != 0 &&
        cost.nfa_instructions > options.budget.max_regex_nfa_instructions) {
      violations.add("regex-nfa-over-budget", id, " compiles to ",
                     cost.nfa_instructions, " NFA instructions (budget ",
                     options.budget.max_regex_nfa_instructions, ")");
    }
    if (options.budget.max_regex_dfa_states != 0 &&
        (cost.dfa_capped ||
         cost.dfa_states > options.budget.max_regex_dfa_states)) {
      violations.add("regex-dfa-blowup", id, " determinizes to ",
                     cost.dfa_capped ? ">= " : "", cost.dfa_states,
                     " DFA states (budget ",
                     options.budget.max_regex_dfa_states, ")");
    } else if (cost.dfa_capped && !cost.program_oversized) {
      warnings.add("regex-dfa-capped", id,
                   " subset construction capped at ", cost.dfa_states,
                   " states");
    }
    if (cost.anchorless) {
      if (options.budget.reject_anchorless_regex) {
        violations.add("regex-anchorless", id, " has no literal anchor of ",
                       options.engine.anchor_min_length,
                       "+ bytes; it would be evaluated on every flow");
      } else {
        warnings.add("regex-anchorless", id,
                     " has no extractable anchor (no AC pre-filter)");
      }
    }
    if (cost.has_unbounded_repeat) {
      if (options.budget.reject_unbounded_repeat) {
        violations.add("regex-unbounded-repeat", id,
                       " contains an unbounded repetition");
      } else {
        warnings.add("regex-unbounded-repeat", id,
                     " contains an unbounded repetition");
      }
    }
    if (cost.large_class_repeat) {
      if (options.budget.reject_large_class_repeat) {
        violations.add("regex-large-class-repeat", id,
                       " repeats a >=128-byte class without bound — the "
                       "classic combined-DFA explosion shape");
      } else {
        warnings.add("regex-large-class-repeat", id,
                     " repeats a >=128-byte class without bound");
      }
    }
    report.regexes.push_back(std::move(rr));
  }
  report.anchor_bits = anchor_strings.size();
  if (report.anchor_bits > options.engine.max_anchor_bits) {
    // Mirrors Engine::compile's hard failure.
    violations.add("anchor-bits-exceeded", report.anchor_bits,
                   " distinct regex anchors exceed the per-scan hit-set "
                   "capacity (EngineConfig::max_anchor_bits = ",
                   options.engine.max_anchor_bits, ")");
  }

  // --- chains --------------------------------------------------------------
  for (const auto& [chain, members] : spec.chains) {
    for (dpi::MiddleboxId id : members) {
      if (!known(id)) {
        violations.add("chain-unknown-middlebox", "chain ", chain,
                       " references unregistered middlebox ", id);
      }
    }
  }

  // --- per-tenant quota ----------------------------------------------------
  if (options.budget.max_patterns_per_middlebox != 0) {
    for (const auto& [mbox, count] : per_middlebox) {
      if (count > options.budget.max_patterns_per_middlebox) {
        violations.add("middlebox-quota-exceeded", "middlebox ", mbox,
                       " registers ", count, " patterns (quota ",
                       options.budget.max_patterns_per_middlebox, ")");
      }
    }
  }

  // --- combined automaton prediction ---------------------------------------
  // The string table is exact patterns plus regex anchors, deduplicated —
  // exactly Engine::compile's collection (and verify::derive_string_table).
  // Per-string match-row weight: distinct (middlebox, rule) exact
  // registrations plus one anchor target if the string anchors any regex.
  TrieEstimator trie;
  std::set<std::string_view> inserted;
  for (const auto& [bytes, refs] : exact_refs) {
    if (bytes.empty()) continue;  // already a violation; keep the model sane
    const std::size_t weight =
        refs.size() + (anchor_strings.count(bytes) ? 1 : 0);
    trie.insert(bytes, weight);
    inserted.insert(bytes);
  }
  for (const std::string& anchor : anchor_strings) {
    if (anchor.empty() || inserted.count(anchor)) continue;
    trie.insert(anchor, 1);
  }

  report.trie = trie.stats();
  report.distinct_strings = report.trie.pattern_count;
  report.predicted_states = report.trie.states;
  report.predicted_accepting = report.trie.accepting;
  report.predicted_match_entries = report.trie.match_entries;
  report.predicted_target_entries = report.trie.weighted_match_entries;
  // memory_bytes() of the paper's full table and of the engine's automaton:
  // a 256-wide row, or an edge range, edges and a failure link per state,
  // plus depths and match rows in both.
  const TrieStats& t = report.trie;
  const std::size_t per_state_and_rows =
      t.states * sizeof(std::uint32_t) + t.accepting * kMatchRowOverhead +
      t.match_entries * sizeof(ac::PatternIndex);
  const std::size_t full_table =
      t.states * 256 * sizeof(ac::StateIndex) + per_state_and_rows;
  const std::size_t automaton =
      t.states * (kEdgeRangeBytes + sizeof(ac::StateIndex)) +
      t.edges * sizeof(ac::CompressedAutomaton::Edge) + per_state_and_rows;
  report.predicted_kernel_memory = kernel_memory(t);

  // Engine-level additions on top of the automaton (Engine::memory_bytes).
  const std::size_t engine_extra =
      report.predicted_accepting * sizeof(dpi::MiddleboxBitmap) +
      report.predicted_accepting * kTargetRowOverhead +
      report.predicted_target_entries * sizeof(dpi::Engine::MatchTarget) +
      anchor_occurrences * sizeof(std::uint32_t);
  report.predicted_memory_full =
      sat_add(sat_add(full_table, engine_extra), program_bytes);
  report.predicted_memory_compressed =
      sat_add(sat_add(automaton, engine_extra), program_bytes);

  // --- combined budgets ----------------------------------------------------
  if (options.budget.max_automaton_states != 0 &&
      report.predicted_states > options.budget.max_automaton_states) {
    violations.add("states-over-budget", "predicted combined automaton has ",
                   report.predicted_states, " states (budget ",
                   options.budget.max_automaton_states, ")");
  }
  if (options.budget.max_memory_bytes != 0 &&
      report.predicted_resident_memory() > options.budget.max_memory_bytes) {
    violations.add("memory-over-budget",
                   "predicted resident engine footprint (automaton, tables "
                   "and hot kernel) is ",
                   report.predicted_resident_memory(), " bytes (budget ",
                   options.budget.max_memory_bytes, ")");
  }
}

}  // namespace

PatternSetReport analyze(const dpi::EngineSpec& spec,
                         const AnalysisOptions& options) {
  PatternSetReport report;
  analyze_into(spec, options, report);
  return report;
}

}  // namespace dpisvc::analysis
