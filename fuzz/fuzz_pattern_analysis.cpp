// Fuzz target: the static admission analyzer (src/analysis) — the gate every
// add_patterns registration passes before the PatternDb is touched.
//
// The input bytes drive an op interpreter that assembles an EngineSpec
// (middlebox profiles, exact patterns, regexes over a '{'-free alphabet,
// chains) plus a random AnalysisBudget. Oracles:
//  * analyze() never throws and never crashes, whatever the spec shape;
//  * verdicts are deterministic: analyzing the same spec twice produces
//    byte-identical reports;
//  * the consistency contract: an admissible verdict means
//    dpi::Engine::compile of the same spec with the same EngineConfig
//    succeeds, AND the predicted state/accepting/memory numbers equal the
//    real engine's exactly (the calibration property, enforced on every
//    fuzz-generated spec, for the regular and the dedicated engine).
//
// Counted repeats ('{') are excluded from the regex alphabet: the
// compile-side blow-up they cause is covered by unit tests
// (analysis_test.cpp), and materializing them here would only slow the
// fuzzer down. Star/plus nesting stays in — program growth is linear there.
#include <cstdint>
#include <string>

#include "analysis/analyzer.hpp"
#include "dpi/engine.hpp"

namespace {

using namespace dpisvc;

/// Sequential byte reader; yields zeros once exhausted so op decoding never
/// reads out of bounds.
class Input {
 public:
  Input(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool empty() const { return pos_ >= size_; }
  std::uint8_t u8() { return pos_ < size_ ? data_[pos_++] : 0; }

  std::string bytes(std::size_t n) {
    const std::size_t take = std::min(n, size_ - std::min(pos_, size_));
    std::string out(reinterpret_cast<const char*>(data_ + pos_), take);
    pos_ += take;
    return out;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Regex bytes come from a curated alphabet: enough metacharacters to reach
/// every parser/cost-model branch, no '{' (see file comment).
std::string regex_bytes(Input& in, std::size_t n) {
  static constexpr char kAlphabet[] = "abcAB019.()[]|*+?^$-\\ez";
  std::string out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(kAlphabet[in.u8() % (sizeof(kAlphabet) - 1)]);
  }
  return out;
}

/// Flattens everything a verdict depends on; byte-compared across repeated
/// runs to prove determinism.
std::string fingerprint(const analysis::PatternSetReport& report) {
  std::string out;
  const auto num = [&out](std::size_t v) {
    out += std::to_string(v);
    out += ';';
  };
  num(report.distinct_strings);
  num(report.predicted_states);
  num(report.predicted_accepting);
  num(report.predicted_match_entries);
  num(report.predicted_target_entries);
  num(report.anchor_bits);
  num(report.predicted_memory_full);
  num(report.predicted_memory_compressed);
  num(report.predicted_kernel_memory);
  num(report.total_regex_instructions);
  for (const auto& r : report.regexes) {
    num(r.cost.nfa_instructions);
    num(r.cost.dfa_states);
    num(r.cost.byte_classes);
    out += r.error;
    out += ';';
  }
  for (const auto& d : report.violations) {
    out += d.code;
    out += '=';
    out += d.message;
    out += ';';
  }
  for (const auto& d : report.warnings) {
    out += d.code;
    out += '=';
    out += d.message;
    out += ';';
  }
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  Input in(data, size);
  dpi::EngineSpec spec;
  analysis::AnalysisOptions options;
  // Small exploration caps keep each iteration fast; the caps themselves
  // are part of the analyzed surface (capped == dfa blow-up verdict).
  options.dfa_state_cap = 128;
  options.max_program_size = 1u << 12;
  options.engine.hot_kernel = (in.u8() & 1) == 0;

  dpi::PatternId next_rule = 0;
  for (int ops = 0; ops < 64 && !in.empty(); ++ops) {
    const std::uint8_t op = in.u8();
    // Ids mostly land in a small valid range so admissible specs are common;
    // one branch in eight strays out of 1..64 to keep range checks covered.
    const std::uint8_t raw = in.u8();
    const auto mbox = static_cast<dpi::MiddleboxId>(
        (raw & 7) == 0 ? raw % 70 : 1 + raw % 8);
    switch (op % 6) {
      case 0: {
        dpi::MiddleboxProfile profile;
        profile.id = mbox;
        profile.name = "m" + std::to_string(mbox);
        profile.stateful = (in.u8() & 1) != 0;
        spec.middleboxes.push_back(profile);
        break;
      }
      case 1:
        if (spec.exact_patterns.size() < 64) {
          spec.exact_patterns.push_back(dpi::ExactPatternSpec{
              in.bytes(in.u8() % 17), mbox, next_rule++});
        }
        break;
      case 2:
        if (spec.regex_patterns.size() < 8) {
          spec.regex_patterns.push_back(dpi::RegexPatternSpec{
              regex_bytes(in, 1 + in.u8() % 20), mbox, next_rule++,
              (in.u8() & 1) != 0});
        }
        break;
      case 3: {
        const auto chain = static_cast<dpi::ChainId>(1 + in.u8() % 4);
        spec.chains[chain] = {mbox};
        break;
      }
      case 4:
        // Re-register an existing pattern under another middlebox: the
        // §4.1 shared-bytes path (cross-tenant-duplicate warning, shared
        // anchor bits).
        if (!spec.exact_patterns.empty()) {
          dpi::ExactPatternSpec copy =
              spec.exact_patterns[in.u8() % spec.exact_patterns.size()];
          copy.middlebox = mbox;
          copy.pattern_id = next_rule++;
          spec.exact_patterns.push_back(std::move(copy));
        }
        break;
      case 5:
        // Budget knobs; zero stays "disabled", tiny values force the
        // over-budget verdicts.
        switch (in.u8() % 5) {
          case 0:
            options.budget.max_automaton_states = in.u8() * 8u;
            break;
          case 1:
            options.budget.max_memory_bytes = in.u8() * 4096u;
            break;
          case 2:
            options.budget.max_regex_nfa_instructions = in.u8();
            break;
          case 3:
            options.budget.max_regex_dfa_states = in.u8();
            break;
          case 4:
            options.budget.max_patterns_per_middlebox = in.u8() % 16;
            break;
        }
        break;
    }
  }

  // Oracle 1: analyze never throws. Oracle 2: verdicts are deterministic.
  const analysis::PatternSetReport report = analysis::analyze(spec, options);
  const analysis::PatternSetReport again = analysis::analyze(spec, options);
  if (fingerprint(report) != fingerprint(again)) __builtin_trap();

  // Oracle 3: admissible => the compile succeeds and every prediction is
  // exact, for the regular and the dedicated engine.
  if (report.admissible()) {
    for (const bool compressed : {false, true}) {
      dpi::EngineConfig config = options.engine;
      config.hot_kernel = !compressed;
      std::shared_ptr<const dpi::Engine> engine;
      try {
        engine = dpi::Engine::compile(spec, config);
      } catch (...) {
        __builtin_trap();  // contract: analysis-ok implies compile-ok
      }
      if (engine->num_automaton_states() != report.predicted_states ||
          engine->num_accepting_states() != report.predicted_accepting ||
          engine->num_distinct_strings() != report.distinct_strings) {
        __builtin_trap();
      }
      if (engine->memory_bytes() != report.predicted_memory_compressed ||
          engine->kernel_memory_bytes() !=
              (compressed ? 0 : report.predicted_kernel_memory)) {
        __builtin_trap();
      }
    }
  }
  return 0;
}
