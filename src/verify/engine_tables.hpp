// Shared plain-data views of compiled-engine artifacts.
//
// Both the static verifier (src/verify, tools/dpisvc_check) and the admission
// analyzer (src/analysis, tools/dpisvc_lint) need the same two derivations:
//
//  - EngineTables: the lookup tables the scan loop consults, extracted from a
//    compiled dpi::Engine into plain data so checks (and tests corrupting one
//    field at a time) never poke at engine internals.
//  - derive_string_table: the distinct-string set (exact patterns plus regex
//    anchors) an engine compile builds its automaton over, re-derived from the
//    EngineSpec without trusting Engine::compile's own bookkeeping.
//
// Keeping these in one translation unit guarantees the verifier's oracle and
// the analyzer's size predictions walk the identical view — a divergence
// between the two tools would otherwise be unfalsifiable.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ac/full_automaton.hpp"
#include "dpi/engine.hpp"

namespace dpisvc::verify {

/// Pattern bytes indexed by ac::PatternIndex (the trie insertion order).
using Patterns = std::vector<std::string>;

/// Plain-data extract of the lookup tables the scan loop consults. Like
/// DfaSnapshot, this exists so tests can corrupt one field at a time and
/// prove each engine-level violation is detected with a precise diagnostic.
struct EngineTables {
  std::uint32_t automaton_accepting = 0;
  std::vector<dpi::MiddleboxBitmap> accept_bitmaps;
  std::vector<std::vector<dpi::Engine::MatchTarget>> accept_targets;
  std::vector<dpi::MiddleboxId> middleboxes;  ///< registered ids
  std::map<dpi::ChainId, std::vector<dpi::MiddleboxId>> chains;
  std::map<dpi::ChainId, dpi::MiddleboxBitmap> chain_bitmaps;
};

EngineTables extract_tables(const dpi::Engine& engine);

/// The distinct-string table (exact patterns plus regex anchors) an engine
/// compile derives from `spec`, in trie insertion order. Re-derived here so
/// neither the verifier's oracle nor the analyzer's size model trusts
/// Engine::compile's bookkeeping. Throws regex::SyntaxError on a malformed
/// expression, exactly like Engine::compile would.
Patterns derive_string_table(const dpi::EngineSpec& spec,
                             const dpi::EngineConfig& config = {});

/// The paper's full table over `patterns` (pattern index = position): the
/// reference the verifier proves the engine's automaton and hot kernel
/// against, and the representation Table 2's "Space" column sizes.
ac::FullAutomaton full_table_of(const Patterns& patterns);

}  // namespace dpisvc::verify
