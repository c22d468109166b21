// dpisvc_lint — static pattern-set admission analyzer CLI.
//
//   dpisvc_lint --builtin [--json] [--calibrate] [budget knobs]
//   dpisvc_lint --patterns FILE [--regex EXPR]... [...]
//
// Runs the src/analysis cost model over pattern sets WITHOUT compiling them:
// predicts the combined engine's automaton states, accepting states, match
// rows, the bytes of the engine and its hot kernel and the size of the
// paper's full table, per-regex Pike-VM program size and bounded
// subset-construction DFA estimates, and judges everything against the same
// AnalysisBudget the controller's admission control enforces at
// registration time. This is the offline half of the admission story: a
// tenant can lint a candidate pattern set against the service budget before
// submitting it.
//
// --calibrate additionally compiles each admissible suite as a regular and
// a dedicated engine, builds the paper's full table from the same strings,
// and cross-checks every prediction against them; any divergence is a
// "calibration-divergence" diagnostic (the cost model is exact, so CI
// treats divergence as a bug, not noise).
//
// Exit status: 0 all suites admissible (and calibrated when requested),
// 1 violations or calibration divergence found, 2 usage error.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/timer.hpp"
#include "json/json.hpp"
#include "suite_specs.hpp"
#include "workload/trace_io.hpp"

using namespace dpisvc;

namespace {

struct Options {
  std::string patterns_file;
  std::vector<std::string> regexes;
  std::size_t max_patterns = 2000;
  bool builtin = false;
  bool json = false;
  bool calibrate = false;
  analysis::AnalysisBudget budget;
};

struct SuiteResult {
  std::string name;
  std::size_t patterns = 0;
  std::size_t regexes = 0;
  double seconds = 0;
  analysis::PatternSetReport report;
  /// Calibration mismatches (code "calibration-divergence"), empty when
  /// calibration was skipped or matched exactly.
  std::vector<verify::Diagnostic> calibration;

  bool ok() const {
    return report.admissible() && calibration.empty();
  }
};

/// Compiles the spec as a regular (`hot_kernel`) or dedicated engine and
/// diffs every prediction the analyzer makes against it. The cost model is
/// exact (analysis::kMemoryCalibrationFactor == 1), so any difference is a
/// defect.
void calibrate_one(const dpi::EngineSpec& spec, bool hot_kernel,
                   const analysis::PatternSetReport& report,
                   std::vector<verify::Diagnostic>& out) {
  dpi::EngineConfig config;
  config.hot_kernel = hot_kernel;
  const char* mode = hot_kernel ? "regular" : "dedicated";
  std::shared_ptr<const dpi::Engine> engine;
  try {
    engine = dpi::Engine::compile(spec, config);
  } catch (const std::exception& e) {
    out.push_back(verify::Diagnostic{
        "calibration-divergence",
        std::string("analysis admitted but compile(") + mode +
            ") threw: " + e.what()});
    return;
  }
  const auto check = [&](const char* what, std::size_t predicted,
                         std::size_t actual) {
    if (predicted != actual) {
      out.push_back(verify::Diagnostic{
          "calibration-divergence",
          std::string(what) + " (" + mode +
              "): predicted " + std::to_string(predicted) + ", actual " +
              std::to_string(actual)});
    }
  };
  check("automaton-states", report.predicted_states,
        engine->num_automaton_states());
  check("accepting-states", report.predicted_accepting,
        engine->num_accepting_states());
  check("distinct-strings", report.distinct_strings,
        engine->num_distinct_strings());
  check("memory-bytes", report.predicted_memory_compressed,
        engine->memory_bytes());
  check("kernel-memory-bytes", hot_kernel ? report.predicted_kernel_memory : 0,
        engine->kernel_memory_bytes());
  if (hot_kernel) {
    // The paper's full table in place of the engine's automaton, with the
    // same match, bitmap and regex tables.
    const std::size_t full =
        verify::full_table_of(verify::derive_string_table(spec))
            .memory_bytes();
    check("full-table-memory-bytes", report.predicted_memory_full,
          engine->memory_bytes() - engine->automaton().memory_bytes() + full);
  }
}

SuiteResult run_suite(const std::string& name,
                      const std::vector<std::string>& patterns,
                      const std::vector<std::string>& regexes,
                      const Options& opt) {
  Stopwatch watch;
  const dpi::EngineSpec spec = tools::make_spec(patterns, regexes);

  analysis::AnalysisOptions options;
  options.budget = opt.budget;

  SuiteResult result;
  result.name = name;
  result.patterns = patterns.size();
  result.regexes = regexes.size();
  result.report = analysis::analyze(spec, options);
  if (opt.calibrate && result.report.admissible()) {
    calibrate_one(spec, /*hot_kernel=*/true, result.report,
                  result.calibration);
    calibrate_one(spec, /*hot_kernel=*/false, result.report,
                  result.calibration);
  }
  result.seconds = watch.elapsed_seconds();

  if (!opt.json) {
    for (const auto& d : result.report.violations) {
      std::printf("FAIL %-24s %s: %s\n", name.c_str(), d.code.c_str(),
                  d.message.c_str());
    }
    for (const auto& d : result.calibration) {
      std::printf("FAIL %-24s %s: %s\n", name.c_str(), d.code.c_str(),
                  d.message.c_str());
    }
    for (const auto& d : result.report.warnings) {
      std::printf("warn %-24s %s: %s\n", name.c_str(), d.code.c_str(),
                  d.message.c_str());
    }
    const auto& r = result.report;
    std::printf(
        "%-24s %4zu patterns %2zu regexes -> %zu states, %zu accepting, "
        "%zu/%zu/%zu bytes (resident/dedicated/full table): %s (%.2f s)\n",
        name.c_str(), patterns.size(), regexes.size(), r.predicted_states,
        r.predicted_accepting, r.predicted_resident_memory(),
        r.predicted_memory_compressed, r.predicted_memory_full,
        result.ok() ? (opt.calibrate ? "OK (calibrated)" : "OK") : "FAILED",
        result.seconds);
  }
  return result;
}

json::Value diagnostics_json(const std::vector<verify::Diagnostic>& diags) {
  json::Array out;
  for (const auto& d : diags) {
    out.push_back(json::obj({{"code", d.code}, {"message", d.message}}));
  }
  return json::Value(std::move(out));
}

json::Value report_json(const std::vector<SuiteResult>& results) {
  json::Array suites;
  std::size_t failures = 0;
  for (const SuiteResult& r : results) {
    failures += r.report.violations.size() + r.calibration.size();
    json::Array regex_costs;
    for (const auto& rr : r.report.regexes) {
      regex_costs.push_back(json::obj(
          {{"middlebox", std::uint64_t{rr.middlebox}},
           {"rule", std::uint64_t{rr.pattern_id}},
           {"nfa_instructions", rr.cost.nfa_instructions},
           {"dfa_states", rr.cost.dfa_states},
           {"dfa_capped", rr.cost.dfa_capped},
           {"byte_classes", rr.cost.byte_classes},
           {"anchors", rr.cost.anchor_count},
           {"anchorless", rr.cost.anchorless},
           {"unbounded_repeat", rr.cost.has_unbounded_repeat}}));
    }
    suites.push_back(json::obj(
        {{"name", r.name},
         {"patterns", r.patterns},
         {"regexes", r.regexes},
         {"seconds", r.seconds},
         {"ok", r.ok()},
         {"predicted_states", r.report.predicted_states},
         {"predicted_accepting", r.report.predicted_accepting},
         {"predicted_match_entries", r.report.predicted_match_entries},
         {"distinct_strings", r.report.distinct_strings},
         {"anchor_bits", r.report.anchor_bits},
         {"predicted_memory_full", r.report.predicted_memory_full},
         {"predicted_memory_compressed",
          r.report.predicted_memory_compressed},
         {"predicted_kernel_memory", r.report.predicted_kernel_memory},
         {"total_regex_instructions", r.report.total_regex_instructions},
         {"trie_shared_prefix_bytes", r.report.trie.shared_prefix_bytes},
         {"regex_costs", std::move(regex_costs)},
         {"violations", diagnostics_json(r.report.violations)},
         {"warnings", diagnostics_json(r.report.warnings)},
         {"calibration", diagnostics_json(r.calibration)}}));
  }
  return json::obj({{"ok", failures == 0},
                    {"total_failures", failures},
                    {"suites", std::move(suites)}});
}

void usage() {
  std::fprintf(stderr, R"(usage: dpisvc_lint [options]

inputs:
  --patterns FILE        analyze the pattern set in FILE (one per line)
  --regex EXPR           add a regex registration (repeatable)
  --max-patterns N       cap patterns read from FILE (default 2000)
  --builtin              analyze the built-in seed workloads (classic,
                         snort-like, clamav-like)

budget knobs (0 = unlimited; same semantics as the controller's admission):
  --max-states N         predicted combined-automaton state budget
  --max-memory BYTES     predicted resident memory budget of a regular
                         engine (automaton and tables plus hot kernel)
  --max-regex-nfa N      per-expression Pike-VM instruction budget
  --max-regex-dfa N      per-expression DFA state budget (capped == over)
  --max-per-middlebox N  patterns per middlebox quota
  --reject-anchorless    reject regexes with no literal anchor
  --reject-unbounded     reject '*' / '+' / '{m,}' repeats

modes:
  --calibrate            also compile each admissible suite (regular and
                         dedicated engines, and the paper's full table) and
                         fail on any divergence between prediction and the
                         real artifacts
  --json                 one machine-readable JSON report on stdout

exit status: 0 = admissible (and calibrated), 1 = violations, 2 = usage error
)");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const auto next_u64 = [&](int& i) {
    return static_cast<std::size_t>(std::stoull(argv[++i]));
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--builtin") {
      opt.builtin = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--calibrate") {
      opt.calibrate = true;
    } else if (arg == "--reject-anchorless") {
      opt.budget.reject_anchorless_regex = true;
    } else if (arg == "--reject-unbounded") {
      opt.budget.reject_unbounded_repeat = true;
    } else if (arg == "--patterns" && has_value) {
      opt.patterns_file = argv[++i];
    } else if (arg == "--regex" && has_value) {
      opt.regexes.push_back(argv[++i]);
    } else if (arg == "--max-patterns" && has_value) {
      opt.max_patterns = next_u64(i);
    } else if (arg == "--max-states" && has_value) {
      opt.budget.max_automaton_states = next_u64(i);
    } else if (arg == "--max-memory" && has_value) {
      opt.budget.max_memory_bytes = next_u64(i);
    } else if (arg == "--max-regex-nfa" && has_value) {
      opt.budget.max_regex_nfa_instructions = next_u64(i);
    } else if (arg == "--max-regex-dfa" && has_value) {
      opt.budget.max_regex_dfa_states = next_u64(i);
    } else if (arg == "--max-per-middlebox" && has_value) {
      opt.budget.max_patterns_per_middlebox = next_u64(i);
    } else {
      usage();
      return 2;
    }
  }
  if (!opt.builtin && opt.patterns_file.empty()) {
    usage();
    return 2;
  }
  try {
    std::vector<SuiteResult> results;
    if (opt.builtin) {
      for (const tools::Suite& suite : tools::builtin_suites()) {
        results.push_back(
            run_suite(suite.name, suite.patterns, suite.regexes, opt));
      }
    }
    if (!opt.patterns_file.empty()) {
      auto patterns = workload::load_patterns(opt.patterns_file);
      if (patterns.size() > opt.max_patterns) {
        patterns.resize(opt.max_patterns);
      }
      results.push_back(
          run_suite(opt.patterns_file, patterns, opt.regexes, opt));
    }
    bool ok = true;
    for (const SuiteResult& r : results) {
      ok = ok && r.ok();
    }
    if (opt.json) {
      std::printf("%s\n", json::dump(report_json(results)).c_str());
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
