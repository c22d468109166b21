// Tests for src/analysis: the per-regex cost model, the trie estimator, and
// the pattern-set analyzer — including the calibration tests that prove the
// predictions against actual src/ac / dpi::Engine compilation of the seed
// workloads (the estimator is verified, not vibes).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "ac/full_automaton.hpp"
#include "ac/trie.hpp"
#include "analysis/analyzer.hpp"
#include "analysis/cost_model.hpp"
#include "dpi/engine.hpp"
#include "regex/program.hpp"
#include "verify/engine_tables.hpp"
#include "workload/pattern_gen.hpp"

namespace dpisvc {
namespace {

using analysis::AnalysisOptions;
using analysis::analyze;
using analysis::analyze_regex;
using analysis::PatternSetReport;
using analysis::RegexCost;
using analysis::RegexCostOptions;
using analysis::TrieEstimator;
using analysis::TrieStats;

bool has_code(const std::vector<verify::Diagnostic>& diags,
              const std::string& code) {
  for (const auto& d : diags) {
    if (d.code == code) return true;
  }
  return false;
}

// --- regex cost model --------------------------------------------------------

TEST(RegexCostTest, SimpleLiteral) {
  const RegexCost cost = analyze_regex("GET /admin");
  EXPECT_EQ(cost.nfa_instructions, 11u);  // 10 bytes + match
  EXPECT_EQ(cost.closure_width_bound, 11u);
  EXPECT_EQ(cost.anchor_count, 1u);
  EXPECT_EQ(cost.longest_anchor, 10u);
  EXPECT_FALSE(cost.anchorless);
  EXPECT_FALSE(cost.has_unbounded_repeat);
  EXPECT_FALSE(cost.dfa_capped);
  EXPECT_FALSE(cost.program_oversized);
  // A literal's scanning DFA is the KMP automaton: |pattern| + 1 states at
  // most (distinct prefixes), possibly fewer after subset dedup.
  EXPECT_GE(cost.dfa_states, 2u);
  EXPECT_LE(cost.dfa_states, 12u);
}

TEST(RegexCostTest, PredictedProgramSizeIsExact) {
  // The AST-level arithmetic must replicate Program::compile's emission
  // counts exactly, for every construct the parser produces.
  const std::vector<std::string> expressions = {
      "abc",
      "a|b|cd",
      "(ab)+c",
      "a*b+c?",
      "a{3}b{2,5}c{4,}",
      "[a-z0-9]+\\d{2}",
      "^GET /[a-z]+ HTTP$",
      "(foo|bar(baz)?)*qux",
      "a(b(c(d)?)?)?e{0,3}",
      ".\\w\\s[^a-f]{2,4}",
  };
  for (const std::string& expr : expressions) {
    const RegexCost cost = analyze_regex(expr);
    const regex::Program program = regex::Program::compile(expr, {});
    EXPECT_EQ(cost.nfa_instructions, program.size()) << expr;
    std::size_t bytes = 0;
    for (const regex::Inst& inst : program.code()) {
      if (inst.op == regex::Op::kByte) ++bytes;
    }
    EXPECT_EQ(cost.closure_width_bound, bytes + 1) << expr;
  }
}

TEST(RegexCostTest, StructuralFlags) {
  const RegexCost star = analyze_regex(".*evil");
  EXPECT_TRUE(star.has_unbounded_repeat);
  EXPECT_TRUE(star.large_class_repeat);  // '.' is a 256-byte class
  EXPECT_EQ(star.max_class_size, 256u);
  EXPECT_FALSE(star.anchorless);  // "evil" anchors it

  const RegexCost bounded = analyze_regex("[a-z]{2,8}");
  EXPECT_FALSE(bounded.has_unbounded_repeat);
  EXPECT_FALSE(bounded.large_class_repeat);
  EXPECT_TRUE(bounded.anchorless);  // classes yield no literal anchor

  const RegexCost open = analyze_regex("ab{3,}");
  EXPECT_TRUE(open.has_unbounded_repeat);
  EXPECT_FALSE(open.large_class_repeat);  // 1-byte class under the repeat
}

TEST(RegexCostTest, OversizedProgramIsPredictedNotMaterialized) {
  // ~10^9 instructions from 22 bytes of input; must flag instantly without
  // allocating the program.
  const RegexCost cost = analyze_regex("((a{999}){999}){999}");
  EXPECT_TRUE(cost.program_oversized);
  EXPECT_TRUE(cost.dfa_capped);
  EXPECT_GT(cost.nfa_instructions, std::size_t{1} << 20);
}

TEST(RegexCostTest, SubsetConstructionCapsOnBlowup) {
  RegexCostOptions options;
  options.max_dfa_states = 64;
  // k unanchored wildcards with bounded gaps force exponential-ish subset
  // growth — the classic multi-track blow-up.
  const RegexCost cost =
      analyze_regex("a.{8}b.{8}c.{8}d.{8}e.{8}f", options);
  EXPECT_TRUE(cost.dfa_capped);
  EXPECT_EQ(cost.dfa_states, 64u);
}

TEST(RegexCostTest, ByteClassPartition) {
  const RegexCost cost = analyze_regex("[ab][ab]x");
  // Classes {a,b}, {x}: partition is {a,b}, {x}, everything-else = 3.
  EXPECT_EQ(cost.byte_classes, 3u);
}

TEST(RegexCostTest, SyntaxErrorPropagates) {
  EXPECT_THROW(analyze_regex("(unclosed"), regex::SyntaxError);
}

// --- trie estimator ----------------------------------------------------------

TEST(TrieEstimatorTest, MarginalGrowthAndSharedPrefixes) {
  TrieEstimator trie;
  EXPECT_EQ(trie.insert("hello"), 5u);
  EXPECT_EQ(trie.insert("help"), 1u);   // "hel" shared, only 'p' is new
  EXPECT_EQ(trie.insert("hel"), 0u);    // pure prefix: zero new states
  EXPECT_EQ(trie.num_states(), 7u);     // root + h e l l o + p

  const TrieStats stats = trie.stats();
  EXPECT_EQ(stats.states, 7u);
  EXPECT_EQ(stats.pattern_count, 3u);
  EXPECT_EQ(stats.shared_prefix_bytes, 3u + 3u);
  EXPECT_EQ(stats.max_depth, 5u);
}

TEST(TrieEstimatorTest, SuffixPropagationCounts) {
  TrieEstimator trie;
  trie.insert("he");
  trie.insert("she");
  trie.insert("his");
  trie.insert("hers");
  const TrieStats stats = trie.stats();
  // The classic AC example: "she"'s terminal also matches "he".
  EXPECT_EQ(stats.accepting, 4u);
  EXPECT_EQ(stats.match_entries, 5u);
  EXPECT_EQ(stats.suffix_overlap_entries, 1u);
}

TEST(TrieEstimatorTest, MatchesRealTrieOnSeedWorkload) {
  const std::vector<std::string> patterns =
      workload::generate_patterns(workload::snort_like(800, 17));

  TrieEstimator estimator;
  ac::Trie trie;
  std::set<std::string> distinct;
  for (const std::string& p : patterns) {
    if (!distinct.insert(p).second) continue;
    estimator.insert(p);
  }
  ac::PatternIndex index = 0;
  for (const std::string& p : distinct) {
    trie.insert(std::string_view(p), index++);
  }
  const auto automaton = ac::FullAutomaton::build(trie);
  const TrieStats stats = estimator.stats();
  EXPECT_EQ(stats.states, automaton.num_states());
  EXPECT_EQ(stats.accepting, automaton.num_accepting());
  std::size_t match_entries = 0;
  for (std::uint32_t s = 0; s < automaton.num_accepting(); ++s) {
    match_entries += automaton.matches_at(s).size();
  }
  EXPECT_EQ(stats.match_entries, match_entries);
}

// --- analyzer: spec-consistency mirror of Engine::compile --------------------

dpi::EngineSpec small_spec() {
  dpi::EngineSpec spec;
  spec.middleboxes.push_back({1, "ids", false, true, dpi::kNoStopCondition});
  spec.middleboxes.push_back({2, "dlp", true, true, dpi::kNoStopCondition});
  spec.exact_patterns.push_back({"attack-string", 1, 1});
  spec.exact_patterns.push_back({"confidential", 2, 1});
  spec.regex_patterns.push_back({"User-Agent: evil[a-z]+", 1, 2, false});
  spec.chains[1] = {1, 2};
  return spec;
}

TEST(AnalyzerTest, CleanSpecIsAdmissible) {
  const PatternSetReport report = analyze(small_spec());
  EXPECT_TRUE(report.admissible()) << (report.violations.empty()
                                           ? ""
                                           : report.violations[0].message);
  EXPECT_EQ(report.distinct_strings, 3u);  // 2 exact + 1 anchor
  EXPECT_EQ(report.anchor_bits, 1u);
  EXPECT_EQ(report.regexes.size(), 1u);
}

TEST(AnalyzerTest, MirrorsEveryCompileRejection) {
  {
    dpi::EngineSpec spec = small_spec();
    spec.middleboxes.push_back({0, "bad", false, true, 0});
    EXPECT_TRUE(has_code(analyze(spec).violations, "middlebox-id-out-of-range"));
    EXPECT_THROW(dpi::Engine::compile(spec), std::invalid_argument);
  }
  {
    dpi::EngineSpec spec = small_spec();
    spec.middleboxes.push_back({1, "dup", false, true, 0});
    EXPECT_TRUE(has_code(analyze(spec).violations, "duplicate-middlebox-id"));
    EXPECT_THROW(dpi::Engine::compile(spec), std::invalid_argument);
  }
  {
    dpi::EngineSpec spec = small_spec();
    spec.exact_patterns.push_back({"orphan", 7, 9});
    EXPECT_TRUE(has_code(analyze(spec).violations, "pattern-unknown-middlebox"));
    EXPECT_THROW(dpi::Engine::compile(spec), std::invalid_argument);
  }
  {
    dpi::EngineSpec spec = small_spec();
    spec.exact_patterns.push_back({"", 1, 9});
    EXPECT_TRUE(has_code(analyze(spec).violations, "pattern-empty"));
    EXPECT_THROW(dpi::Engine::compile(spec), std::invalid_argument);
  }
  {
    dpi::EngineSpec spec = small_spec();
    spec.regex_patterns.push_back({"x+", 7, 9, false});
    EXPECT_TRUE(has_code(analyze(spec).violations, "regex-unknown-middlebox"));
    EXPECT_THROW(dpi::Engine::compile(spec), std::invalid_argument);
  }
  {
    dpi::EngineSpec spec = small_spec();
    spec.regex_patterns.push_back({"(broken", 1, 9, false});
    EXPECT_TRUE(has_code(analyze(spec).violations, "regex-syntax-error"));
    EXPECT_THROW(dpi::Engine::compile(spec), regex::SyntaxError);
  }
  {
    dpi::EngineSpec spec = small_spec();
    spec.chains[2] = {1, 63};
    EXPECT_TRUE(has_code(analyze(spec).violations, "chain-unknown-middlebox"));
    EXPECT_THROW(dpi::Engine::compile(spec), std::invalid_argument);
  }
  {
    dpi::EngineSpec spec = small_spec();
    spec.regex_patterns.push_back({"anchor-one-literal", 1, 10, false});
    spec.regex_patterns.push_back({"anchor-two-literal", 1, 11, false});
    dpi::EngineConfig config;
    config.max_anchor_bits = 2;  // spec needs 3 distinct anchors
    AnalysisOptions options;
    options.engine = config;
    EXPECT_TRUE(has_code(analyze(spec, options).violations,
                         "anchor-bits-exceeded"));
    EXPECT_THROW(dpi::Engine::compile(spec, config), std::invalid_argument);
  }
}

TEST(AnalyzerTest, BudgetViolationsAndWarnings) {
  dpi::EngineSpec spec = small_spec();
  spec.regex_patterns.push_back({".*", 1, 20, false});

  AnalysisOptions strict;
  strict.budget.max_automaton_states = 5;
  strict.budget.reject_anchorless_regex = true;
  strict.budget.reject_unbounded_repeat = true;
  strict.budget.reject_large_class_repeat = true;
  const PatternSetReport rejected = analyze(spec, strict);
  EXPECT_FALSE(rejected.admissible());
  EXPECT_TRUE(has_code(rejected.violations, "states-over-budget"));
  EXPECT_TRUE(has_code(rejected.violations, "regex-anchorless"));
  EXPECT_TRUE(has_code(rejected.violations, "regex-unbounded-repeat"));
  EXPECT_TRUE(has_code(rejected.violations, "regex-large-class-repeat"));

  // The same findings demote to warnings when the budget does not police
  // them — and the spec still compiles (fail-closed only on violations).
  const PatternSetReport advisory = analyze(spec);
  EXPECT_TRUE(advisory.admissible());
  EXPECT_TRUE(has_code(advisory.warnings, "regex-anchorless"));
  EXPECT_TRUE(has_code(advisory.warnings, "regex-unbounded-repeat"));
  EXPECT_NO_THROW(dpi::Engine::compile(spec));
}

TEST(AnalyzerTest, PerMiddleboxQuotaAndMemoryBudget) {
  dpi::EngineSpec spec = small_spec();
  AnalysisOptions options;
  options.budget.max_patterns_per_middlebox = 1;
  EXPECT_TRUE(has_code(analyze(spec, options).violations,
                       "middlebox-quota-exceeded"));

  AnalysisOptions tiny_memory;
  tiny_memory.budget.max_memory_bytes = 128;
  EXPECT_TRUE(
      has_code(analyze(spec, tiny_memory).violations, "memory-over-budget"));
}

TEST(AnalyzerTest, CrossTenantDuplicateIsAdvisory) {
  dpi::EngineSpec spec = small_spec();
  spec.exact_patterns.push_back({"attack-string", 2, 40});  // tenant 2 too
  const PatternSetReport report = analyze(spec);
  EXPECT_TRUE(report.admissible());
  EXPECT_TRUE(has_code(report.warnings, "cross-tenant-duplicate"));
  // Shared registration adds zero automaton states.
  EXPECT_EQ(report.distinct_strings, 3u);
}

TEST(AnalyzerTest, OversizedRegexIsAlwaysFatal) {
  dpi::EngineSpec spec = small_spec();
  spec.regex_patterns.push_back({"((a{999}){999}){999}", 1, 30, false});
  const PatternSetReport report = analyze(spec);
  EXPECT_TRUE(has_code(report.violations, "regex-program-too-large"));
}

TEST(AnalyzerTest, ReportsAreDeterministic) {
  dpi::EngineSpec spec = small_spec();
  spec.regex_patterns.push_back({".*x[0-9]{2,}", 2, 21, false});
  const PatternSetReport a = analyze(spec);
  const PatternSetReport b = analyze(spec);
  EXPECT_EQ(a.predicted_states, b.predicted_states);
  EXPECT_EQ(a.predicted_memory_full, b.predicted_memory_full);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  ASSERT_EQ(a.warnings.size(), b.warnings.size());
  for (std::size_t i = 0; i < a.warnings.size(); ++i) {
    EXPECT_EQ(a.warnings[i].code, b.warnings[i].code);
    EXPECT_EQ(a.warnings[i].message, b.warnings[i].message);
  }
}

// --- calibration: predictions vs actual compilation --------------------------

dpi::EngineSpec seed_spec(std::size_t snort, std::size_t clamav,
                          std::size_t regexes) {
  dpi::EngineSpec spec;
  spec.middleboxes.push_back({1, "ids", false, true, dpi::kNoStopCondition});
  spec.middleboxes.push_back({2, "av", false, true, dpi::kNoStopCondition});
  spec.middleboxes.push_back({3, "dlp", true, true, dpi::kNoStopCondition});
  dpi::PatternId next = 1;
  for (const std::string& p :
       workload::generate_patterns(workload::snort_like(snort, 17))) {
    spec.exact_patterns.push_back({p, 1, next++});
  }
  for (const std::string& p :
       workload::generate_patterns(workload::clamav_like(clamav, 23))) {
    spec.exact_patterns.push_back({p, 2, next++});
  }
  for (const std::string& expr : workload::generate_regex_rules(regexes, 7)) {
    spec.regex_patterns.push_back({expr, 3, next++, false});
  }
  // Tenant 3 re-registers a slice of tenant 1's set (shared entries).
  for (std::size_t i = 0; i < spec.exact_patterns.size() && i < 16; i += 2) {
    spec.exact_patterns.push_back({spec.exact_patterns[i].bytes, 3, next++});
  }
  spec.chains[1] = {1, 2, 3};
  return spec;
}

void expect_calibrated(const dpi::EngineSpec& spec,
                       const dpi::EngineConfig& config) {
  AnalysisOptions options;
  options.engine = config;
  const PatternSetReport report = analyze(spec, options);
  ASSERT_TRUE(report.admissible())
      << (report.violations.empty() ? "" : report.violations[0].message);

  const auto engine = dpi::Engine::compile(spec, config);
  // State counts are modeled exactly (the estimator rebuilds the trie and
  // failure closure by definition): predicted == actual, factor 1.0.
  EXPECT_EQ(report.predicted_states, engine->num_automaton_states());
  EXPECT_EQ(report.predicted_accepting, engine->num_accepting_states());
  EXPECT_EQ(report.distinct_strings, engine->num_distinct_strings());
  std::size_t target_entries = 0;
  for (std::uint32_t s = 0; s < engine->num_accepting_states(); ++s) {
    target_entries += engine->accept_targets(s).size();
  }
  EXPECT_EQ(report.predicted_target_entries, target_entries);
  // Memory is modeled from the same element sizes the artifacts use, so it
  // too must be exact (kMemoryCalibrationFactor == 1.0 documents this):
  // the engine, its hot kernel when it has one, and the paper's full table
  // in place of the engine's automaton.
  EXPECT_EQ(report.predicted_memory_compressed, engine->memory_bytes());
  EXPECT_EQ(config.hot_kernel ? report.predicted_kernel_memory : 0,
            engine->kernel_memory_bytes());
  const ac::FullAutomaton full =
      verify::full_table_of(verify::derive_string_table(spec, config));
  EXPECT_EQ(report.predicted_memory_full,
            engine->memory_bytes() - engine->automaton().memory_bytes() +
                full.memory_bytes());
}

TEST(CalibrationTest, SnortClamavSeedWorkloadFullTable) {
  expect_calibrated(seed_spec(600, 400, 24), dpi::EngineConfig{});
}

TEST(CalibrationTest, SnortClamavSeedWorkloadCompressed) {
  dpi::EngineConfig config;
  config.hot_kernel = false;
  expect_calibrated(seed_spec(600, 400, 24), config);
}

TEST(CalibrationTest, RegexOnlySpecUsesOneStateModel) {
  dpi::EngineSpec spec;
  spec.middleboxes.push_back({1, "rx", false, true, dpi::kNoStopCondition});
  spec.regex_patterns.push_back({"[0-9]{1,3}", 1, 1, false});  // anchorless
  expect_calibrated(spec, dpi::EngineConfig{});
}

TEST(CalibrationTest, EmptySpec) {
  dpi::EngineSpec spec;
  spec.middleboxes.push_back({1, "idle", false, true, dpi::kNoStopCondition});
  expect_calibrated(spec, dpi::EngineConfig{});
}

/// More states than the hot core's u16 ids can hold: the kernel prediction
/// must cut the core at the same depth bound and count only its labels.
TEST(CalibrationTest, SeedWorkloadBeyondTheHotCore) {
  const dpi::EngineSpec spec = seed_spec(0, 5500, 0);
  ASSERT_GT(analyze(spec).predicted_states, ac::kMaxHotStates);
  expect_calibrated(spec, dpi::EngineConfig{});
}

TEST(CalibrationTest, MemoryBudgetCoversTheHotKernel) {
  // The budget applies to the regular engine's resident bytes, whichever
  // engine the config names: one the dedicated engine fits but the kernel
  // on top does not must reject.
  const dpi::EngineSpec spec = seed_spec(300, 200, 4);
  const PatternSetReport report = analyze(spec);
  AnalysisOptions options;
  options.engine.hot_kernel = false;
  options.budget.max_memory_bytes = report.predicted_resident_memory();
  EXPECT_TRUE(analyze(spec, options).admissible());
  options.budget.max_memory_bytes = report.predicted_memory_compressed;
  EXPECT_TRUE(
      has_code(analyze(spec, options).violations, "memory-over-budget"));
}

TEST(CalibrationTest, BlowupSetRejectedBeforeCompile) {
  // The acceptance-criteria scenario: a crafted blow-up set must be caught
  // by the analyzer with a stable code, using only static analysis.
  dpi::EngineSpec spec = seed_spec(64, 64, 4);
  spec.regex_patterns.push_back(
      {".{16}a.{16}b.{16}c.{16}d.{16}e", 3, 9000, false});
  AnalysisOptions options;
  options.budget.max_regex_dfa_states = 512;
  options.dfa_state_cap = 1024;
  const PatternSetReport report = analyze(spec, options);
  EXPECT_FALSE(report.admissible());
  EXPECT_TRUE(has_code(report.violations, "regex-dfa-blowup"));
}

}  // namespace
}  // namespace dpisvc
