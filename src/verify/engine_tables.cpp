#include "verify/engine_tables.hpp"

#include <set>

#include "regex/anchors.hpp"
#include "regex/parser.hpp"

namespace dpisvc::verify {

EngineTables extract_tables(const dpi::Engine& engine) {
  EngineTables tables;
  tables.automaton_accepting = engine.automaton().num_accepting();
  for (ac::StateIndex s = 0; s < engine.num_accepting_states(); ++s) {
    tables.accept_bitmaps.push_back(engine.accept_bitmap(s));
    tables.accept_targets.push_back(engine.accept_targets(s));
  }
  for (const auto& profile : engine.middleboxes()) {
    tables.middleboxes.push_back(profile.id);
  }
  for (const auto& [id, chain] : engine.chain_table()) {
    tables.chains[id] = chain.members;
    tables.chain_bitmaps[id] = chain.active;
  }
  return tables;
}

Patterns derive_string_table(const dpi::EngineSpec& spec,
                             const dpi::EngineConfig& config) {
  // Mirrors the distinct-string collection of Engine::compile — on purpose
  // re-derived here, so a compile-side mapping bug shows up as an oracle
  // divergence instead of being trusted.
  std::set<std::string> strings;
  for (const auto& pat : spec.exact_patterns) {
    strings.insert(pat.bytes);
  }
  for (const auto& re : spec.regex_patterns) {
    regex::ParseOptions popts;
    popts.case_insensitive = re.case_insensitive;
    regex::NodePtr ast = regex::parse(re.expression, popts);
    regex::AnchorOptions aopts;
    aopts.min_length = config.anchor_min_length;
    for (std::string& anchor : regex::extract_anchors(*ast, aopts)) {
      strings.insert(std::move(anchor));
    }
  }
  return {strings.begin(), strings.end()};
}

ac::FullAutomaton full_table_of(const Patterns& patterns) {
  ac::Trie trie;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    trie.insert(std::string_view(patterns[i]),
                static_cast<ac::PatternIndex>(i));
  }
  return ac::FullAutomaton::build(trie);
}

}  // namespace dpisvc::verify
