// Tests for the static verifier (src/verify): a clean build must verify
// with zero diagnostics, and every §5.1 invariant violation — injected by
// corrupting a DfaSnapshot or EngineTables field-by-field — must be
// detected with its own precise diagnostic code. The corrupted fixtures are
// the point: they prove the verifier would actually catch the bugs it
// exists to catch (dense renumbering broken, suffix propagation skipped,
// stale bitmaps, cyclic failure links, de-sorted rows, wrong transitions).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ac/compressed_automaton.hpp"
#include "ac/full_automaton.hpp"
#include "ac/trie.hpp"
#include "verify/verifier.hpp"
#include "workload/pattern_gen.hpp"

namespace dpisvc {
namespace {

using verify::Diagnostic;
using verify::DfaSnapshot;

// Classic suffix-heavy set: "he" is a proper suffix of "she" and a prefix
// of "hers", so the suffix-closure rule is load-bearing everywhere.
const std::vector<std::string> kPatterns = {"he", "she", "his", "hers",
                                            "ushers"};

ac::Trie make_trie(const std::vector<std::string>& patterns) {
  ac::Trie trie;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    trie.insert(std::string_view(patterns[i]),
                static_cast<ac::PatternIndex>(i));
  }
  return trie;
}

DfaSnapshot full_snapshot(const std::vector<std::string>& patterns) {
  ac::Trie trie = make_trie(patterns);
  return verify::snapshot_of(ac::FullAutomaton::build(trie));
}

DfaSnapshot compressed_snapshot(const std::vector<std::string>& patterns) {
  ac::Trie trie = make_trie(patterns);
  return verify::snapshot_of(ac::CompressedAutomaton::build(trie));
}

bool has_code(const std::vector<Diagnostic>& diagnostics, const char* code) {
  return std::any_of(
      diagnostics.begin(), diagnostics.end(),
      [code](const Diagnostic& d) { return d.code == code; });
}

std::string codes_of(const std::vector<Diagnostic>& diagnostics) {
  std::string out;
  for (const auto& d : diagnostics) {
    out += d.code + ": " + d.message + "\n";
  }
  return out;
}

/// Walks the snapshot from the start state along `word`.
ac::StateIndex state_for(const DfaSnapshot& snap, std::string_view word) {
  ac::StateIndex s = snap.start;
  for (char c : word) {
    s = snap.step(s, static_cast<std::uint8_t>(c));
  }
  return s;
}

// --- clean builds verify clean ----------------------------------------------

TEST(Verifier, CleanFullAutomatonHasNoDiagnostics) {
  const auto diagnostics = verify::verify_dfa(full_snapshot(kPatterns),
                                              kPatterns);
  EXPECT_TRUE(diagnostics.empty()) << codes_of(diagnostics);
}

TEST(Verifier, CleanCompressedAutomatonHasNoDiagnostics) {
  const auto diagnostics =
      verify::verify_dfa(compressed_snapshot(kPatterns), kPatterns);
  EXPECT_TRUE(diagnostics.empty()) << codes_of(diagnostics);
}

TEST(Verifier, RepresentationsAreEquivalent) {
  const auto diagnostics = verify::check_equivalence(
      full_snapshot(kPatterns), compressed_snapshot(kPatterns));
  EXPECT_TRUE(diagnostics.empty()) << codes_of(diagnostics);
}

TEST(Verifier, CleanGeneratedSetVerifies) {
  const auto patterns =
      workload::generate_patterns(workload::snort_like(150, 7));
  const auto diagnostics = verify::verify_dfa(full_snapshot(patterns),
                                              patterns);
  EXPECT_TRUE(diagnostics.empty()) << codes_of(diagnostics);
}

// --- corrupted fixture 1: non-dense accepting renumbering --------------------

TEST(VerifierFixture, NonDenseAcceptingIdsDetected) {
  DfaSnapshot snap = full_snapshot(kPatterns);
  // Pretend the last accepting id was renumbered outside {0..f-1}: the state
  // still matches a pattern per the oracle, but `state < f` now denies it.
  ASSERT_GT(snap.num_accepting, 0u);
  snap.num_accepting -= 1;
  snap.match_table.pop_back();
  const auto diagnostics = verify::verify_dfa(snap, kPatterns);
  EXPECT_TRUE(has_code(diagnostics, "acceptance-divergence"))
      << codes_of(diagnostics);
}

// --- corrupted fixture 2: suffix propagation skipped -------------------------

TEST(VerifierFixture, MissingSuffixPropagationDetected) {
  DfaSnapshot snap = full_snapshot(kPatterns);
  // State "she" must also output "he" (proper suffix, §5.1). Drop it.
  const ac::StateIndex she = state_for(snap, "she");
  ASSERT_LT(she, snap.num_accepting);
  auto& row = snap.match_table[she];
  const auto he = std::find(row.begin(), row.end(),
                            static_cast<ac::PatternIndex>(0));  // "he" = 0
  ASSERT_NE(he, row.end()) << "fixture expects \"he\" propagated into \"she\"";
  row.erase(he);
  const auto diagnostics = verify::verify_dfa(snap, kPatterns);
  EXPECT_TRUE(has_code(diagnostics, "suffix-propagation-missing"))
      << codes_of(diagnostics);
  EXPECT_FALSE(has_code(diagnostics, "match-divergence"))
      << "missing suffix must be diagnosed precisely, not generically";
}

// --- corrupted fixture 3: stale accepting-state bitmap -----------------------

TEST(VerifierFixture, StaleAcceptBitmapDetected) {
  dpi::EngineSpec spec;
  dpi::MiddleboxProfile p1;
  p1.id = 1;
  p1.name = "ids";
  dpi::MiddleboxProfile p2;
  p2.id = 2;
  p2.name = "av";
  spec.middleboxes = {p1, p2};
  dpi::PatternId rule = 0;
  for (const auto& pattern : kPatterns) {
    spec.exact_patterns.push_back(dpi::ExactPatternSpec{
        pattern, static_cast<dpi::MiddleboxId>(1 + rule % 2), rule});
    ++rule;
  }
  spec.chains[1] = {1, 2};
  const auto engine = dpi::Engine::compile(spec);

  verify::EngineTables tables = verify::extract_tables(*engine);
  EXPECT_TRUE(verify::check_engine_tables(tables).empty());

  // A bitmap that stopped tracking its match targets silently suppresses
  // (extra bit: spurious wakeups) or drops (missing bit) matches.
  ASSERT_FALSE(tables.accept_bitmaps.empty());
  tables.accept_bitmaps[0] ^= dpi::bitmap_of(2);
  const auto diagnostics = verify::check_engine_tables(tables);
  EXPECT_TRUE(has_code(diagnostics, "bitmap-stale")) << codes_of(diagnostics);
}

// --- corrupted fixture 4: cyclic failure links -------------------------------

TEST(VerifierFixture, CyclicFailureLinkDetected) {
  DfaSnapshot snap = compressed_snapshot(kPatterns);
  ASSERT_EQ(snap.fail.size(), snap.num_states);
  // Tie two non-root states into a failure cycle: walking the chain from
  // either never reaches the root, which would hang the compressed scan.
  const ac::StateIndex a = state_for(snap, "sh");
  const ac::StateIndex b = state_for(snap, "she");
  ASSERT_NE(a, snap.start);
  ASSERT_NE(b, snap.start);
  snap.fail[a] = b;
  snap.fail[b] = a;
  const auto diagnostics = verify::check_failure_links(snap);
  EXPECT_TRUE(has_code(diagnostics, "failure-link-cycle"))
      << codes_of(diagnostics);
}

TEST(VerifierFixture, DepthIncreasingFailureLinkDetected) {
  DfaSnapshot snap = compressed_snapshot(kPatterns);
  const ac::StateIndex sh = state_for(snap, "sh");
  const ac::StateIndex she = state_for(snap, "she");
  snap.fail[sh] = she;  // deeper than "sh": depth must strictly decrease
  const auto diagnostics = verify::check_failure_links(snap);
  EXPECT_TRUE(has_code(diagnostics, "failure-link-depth"))
      << codes_of(diagnostics);
}

// --- corrupted fixture 5: de-sorted / duplicated match rows ------------------

TEST(VerifierFixture, UnsortedMatchRowDetected) {
  DfaSnapshot snap = full_snapshot(kPatterns);
  const ac::StateIndex she = state_for(snap, "she");
  auto& row = snap.match_table[she];
  ASSERT_GE(row.size(), 2u) << "\"she\" must output both \"she\" and \"he\"";
  std::swap(row.front(), row.back());
  const auto diagnostics = verify::check_match_rows(snap, kPatterns.size());
  EXPECT_TRUE(has_code(diagnostics, "match-row-unsorted"))
      << codes_of(diagnostics);
}

TEST(VerifierFixture, DuplicateMatchRowEntryDetected) {
  DfaSnapshot snap = full_snapshot(kPatterns);
  const ac::StateIndex she = state_for(snap, "she");
  auto& row = snap.match_table[she];
  row.push_back(row.back());
  const auto diagnostics = verify::check_match_rows(snap, kPatterns.size());
  EXPECT_TRUE(has_code(diagnostics, "match-row-duplicate"))
      << codes_of(diagnostics);
}

// --- corrupted fixture 6: wrong transition -----------------------------------

TEST(VerifierFixture, TransitionDivergenceDetected) {
  DfaSnapshot snap = full_snapshot(kPatterns);
  // Reroute delta("sh", 'e') to the root: "she"/"he" would never match when
  // reached through this edge.
  const ac::StateIndex sh = state_for(snap, "sh");
  snap.transitions[static_cast<std::size_t>(sh) * 256u +
                   static_cast<unsigned char>('e')] = snap.start;
  const auto diagnostics = verify::verify_dfa(snap, kPatterns);
  EXPECT_TRUE(has_code(diagnostics, "transition-divergence") ||
              has_code(diagnostics, "state-count"))
      << codes_of(diagnostics);
}

// --- structural + equivalence corruption -------------------------------------

TEST(VerifierFixture, MatchTableSizeMismatchDetected) {
  DfaSnapshot snap = full_snapshot(kPatterns);
  snap.match_table.emplace_back();
  const auto diagnostics = verify::check_structure(snap);
  EXPECT_TRUE(has_code(diagnostics, "match-table-size"))
      << codes_of(diagnostics);
}

TEST(VerifierFixture, RepresentationDivergenceDetected) {
  const DfaSnapshot full = full_snapshot(kPatterns);
  DfaSnapshot compressed = compressed_snapshot(kPatterns);
  compressed.transitions[static_cast<std::size_t>(compressed.start) * 256u +
                         static_cast<unsigned char>('h')] = compressed.start;
  const auto diagnostics = verify::check_equivalence(full, compressed);
  EXPECT_TRUE(has_code(diagnostics, "representation-divergence"))
      << codes_of(diagnostics);
}

// --- engine spec end-to-end --------------------------------------------------

TEST(Verifier, EngineSpecWithRegexesVerifies) {
  dpi::EngineSpec spec;
  dpi::MiddleboxProfile p;
  p.id = 1;
  p.name = "ids";
  spec.middleboxes = {p};
  dpi::PatternId rule = 0;
  for (const auto& pattern : kPatterns) {
    spec.exact_patterns.push_back(dpi::ExactPatternSpec{pattern, 1, rule++});
  }
  spec.regex_patterns.push_back(
      dpi::RegexPatternSpec{"User-Agent: [a-z]+bot", 1, 100, false});
  spec.chains[1] = {1};

  for (const bool compressed : {false, true}) {
    dpi::EngineConfig config;
    config.hot_kernel = !compressed;
    const auto diagnostics = verify::verify_engine_spec(spec, config);
    EXPECT_TRUE(diagnostics.empty()) << codes_of(diagnostics);
  }
}

TEST(Verifier, DiagnosticsAreCappedNotUnbounded) {
  DfaSnapshot snap = full_snapshot(
      workload::generate_patterns(workload::snort_like(200, 3)));
  // Systemic corruption: shift every transition's target by one.
  for (auto& t : snap.transitions) {
    t = (t + 1) % snap.num_states;
  }
  const auto diagnostics = verify::verify_dfa(
      snap, workload::generate_patterns(workload::snort_like(200, 3)));
  EXPECT_FALSE(diagnostics.empty());
  EXPECT_LE(diagnostics.size(), 200u);  // capped, not one per transition
}

}  // namespace
}  // namespace dpisvc
