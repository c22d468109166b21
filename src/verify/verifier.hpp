// Static verifier for the combined-DFA and service-configuration invariants.
//
// The paper's correctness argument (§5.1) rests on structural properties of
// the compiled artifacts that nothing at runtime re-checks: accepting states
// renumbered densely into {0..f-1}, suffix patterns propagated into every
// match-table row, the per-state middlebox bitmap equal to the OR of its
// match targets, failure links acyclic and depth-decreasing, and the
// compressed (failure-link) representation decoding to the exact same
// transition function as the full table. Optimisation PRs can silently break
// any of these while all example traffic still scans plausibly.
//
// This module proves the properties mechanically:
//
//  - DFA checks run against a DfaSnapshot and an *independent* oracle derived
//    from the pattern set by definition (a state with label w matches
//    pattern p iff p is a suffix of w; delta(w, b) is the longest suffix of
//    w+b that is a prefix of some pattern). The oracle shares no code with
//    src/ac, so a construction bug cannot hide itself.
//  - Engine checks cross-validate the match table, accepting-state bitmaps
//    and chain bitmaps of a compiled dpi::Engine.
//  - PatternDb checks prove the controller's ref-counts equal the sum of
//    per-middlebox registrations visible in its snapshot.
//
// Every violation is reported as a Diagnostic with a stable machine-readable
// `code` (tests assert on codes; tools/dpisvc_check prints them).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "dpi/engine.hpp"
#include "dpi/pattern_db.hpp"
#include "verify/dfa_snapshot.hpp"
#include "verify/engine_tables.hpp"

namespace dpisvc::verify {

struct Diagnostic {
  std::string code;     ///< stable id, e.g. "suffix-propagation-missing"
  std::string message;  ///< human-readable detail with state/pattern ids
};

// --- individual DFA checks ---------------------------------------------------

/// Shape sanity: index ranges, table sizes. Codes: "start-out-of-range",
/// "transition-out-of-range", "match-table-size", "accepting-count",
/// "table-shape".
std::vector<Diagnostic> check_structure(const DfaSnapshot& snap);

/// Match rows sorted, deduped, and non-empty for every accepting state.
/// Codes: "match-row-unsorted", "match-row-duplicate",
/// "accepting-empty-output", "pattern-index-out-of-range".
std::vector<Diagnostic> check_match_rows(const DfaSnapshot& snap,
                                         std::size_t num_patterns);

/// Failure links (when materialized): root self-loop, depth-decreasing,
/// acyclic. Codes: "failure-link-root", "failure-link-depth",
/// "failure-link-cycle".
std::vector<Diagnostic> check_failure_links(const DfaSnapshot& snap);

/// Definition-based oracle over the pattern set: state labels, acceptance,
/// suffix-pattern closure, and the full transition function. Codes:
/// "state-unreachable", "label-collision", "label-not-prefix",
/// "state-count", "acceptance-divergence", "suffix-propagation-missing",
/// "match-divergence", "transition-divergence", "depth-divergence".
std::vector<Diagnostic> check_against_patterns(const DfaSnapshot& snap,
                                               const Patterns& patterns);

/// Proves two representations (typically full-table vs compressed) encode
/// the identical automaton. Codes: "representation-shape",
/// "representation-divergence", "representation-match-divergence".
std::vector<Diagnostic> check_equivalence(const DfaSnapshot& full,
                                          const DfaSnapshot& compressed);

// --- batched scan kernel -----------------------------------------------------

/// Proves the batched-kernel layout (ac::HotKernel) encodes exactly the
/// full table restricted to the hot core: the hot<->automaton id maps are
/// inverse bijections, the hot set is depth-closed, accepting-first
/// renumbering is preserved, and — for every hot state and every one of the
/// 256 input bytes — the class-compressed table entry equals the full
/// transition (which simultaneously proves the byte classes sound). `full`
/// is the reference built from the same trie as the engine's automaton,
/// which numbers its states the same way. Codes: "kernel-unavailable",
/// "kernel-shape", "kernel-id-map", "kernel-depth-closure",
/// "kernel-accepting-order", "kernel-start-cold", "kernel-complete-flag",
/// "kernel-class-range", "kernel-transition-divergence".
std::vector<Diagnostic> check_hot_kernel(const ac::FullAutomaton& full,
                                         const ac::HotKernel& kernel);

/// Differential cross-check of the hot kernel's walk. `engine` runs the
/// kernel; `reference` is the same spec compiled with hot_kernel = false,
/// so it walks the same automaton with CompressedAutomaton::step alone, and
/// that walk is the oracle. Every flow's packet sequence is scanned
/// packet-by-packet through both engines (cursors resumed independently),
/// and the flows are additionally advanced in lockstep through the
/// engine's scan_batch; every ScanResult is compared field by field —
/// match sections, raw/anchor/regex counters, bytes scanned, and the
/// resumed FlowCursor (DFA state, flow offset, anchor bits, regex window).
/// The per-transition layout proof above makes table divergence
/// impossible; this check covers the walk itself (stride boundaries,
/// interleave scheduling, cold exits and kernel re-entry, event ordering).
/// Codes: "kernel-not-active", "reference-has-kernel",
/// "kernel-scan-divergence", "kernel-batch-divergence".
std::vector<Diagnostic> cross_check_kernel(
    const dpi::Engine& engine, const dpi::Engine& reference,
    dpi::ChainId chain, const std::vector<std::vector<Bytes>>& flows);

// --- engine / service checks -------------------------------------------------
// EngineTables and extract_tables live in verify/engine_tables.hpp (shared
// with src/analysis and tools/dpisvc_lint), re-exported via the include above.

/// Accepting-state bitmaps equal the OR of their match-target owners, target
/// rows sorted as the scan loop assumes, chain bitmaps consistent with chain
/// members. Codes: "engine-shape", "bitmap-stale", "target-row-unsorted",
/// "target-owner-mismatch", "target-unknown-middlebox", "chain-bitmap-stale".
std::vector<Diagnostic> check_engine_tables(const EngineTables& tables);

/// Convenience: extract_tables + check_engine_tables.
std::vector<Diagnostic> check_engine(const dpi::Engine& engine);

/// Controller ref-counts equal the sum of per-middlebox registrations.
/// Codes: "refcount-mismatch", "distinct-count", "unregistered-reference",
/// "chain-unknown-middlebox".
std::vector<Diagnostic> check_pattern_db(const dpi::PatternDb& db);

// --- aggregates --------------------------------------------------------------

/// All DFA checks (structure, match rows, failure links, oracle).
std::vector<Diagnostic> verify_dfa(const DfaSnapshot& snap,
                                   const Patterns& patterns);

/// Full verification of an engine spec: compiles the engine with `config`,
/// re-derives the distinct-string table (exact patterns plus regex anchors)
/// independently, runs all DFA checks on the engine's automaton, builds the
/// paper's full table from the same strings and proves the two equivalent,
/// then runs the engine-level checks.
std::vector<Diagnostic> verify_engine_spec(const dpi::EngineSpec& spec,
                                           const dpi::EngineConfig& config = {});

}  // namespace dpisvc::verify
