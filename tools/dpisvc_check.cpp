// dpisvc_check — static verifier CLI for built DFAs and service state.
//
//   dpisvc_check --patterns FILE [--regex EXPR]... [--max-patterns N]
//   dpisvc_check --builtin
//
// Loads (or generates) pattern sets, compiles the combined engine, and
// proves the §5 structural invariants against a definition-based oracle:
// dense accepting-state renumbering, suffix-pattern propagation,
// sorted/deduped match rows, acyclic depth-decreasing failure links, exact
// equivalence of the engine's failure-link automaton and the paper's full
// table, accepting-state bitmap consistency, and controller ref-count
// consistency.
//
// Exit status: 0 all invariants hold, 1 violations found (each printed as
// `FAIL <code>: <detail>`), 2 usage error. CI runs `--builtin` plus the
// generated example pattern sets on every sanitizer configuration; run it
// after any change to src/ac, src/dpi or src/compress.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "dpi/pattern_db.hpp"
#include "json/json.hpp"
#include "suite_specs.hpp"
#include "verify/verifier.hpp"
#include "workload/adversarial_gen.hpp"
#include "workload/trace_io.hpp"

using namespace dpisvc;

namespace {

struct Options {
  std::string patterns_file;
  std::vector<std::string> regexes;
  std::size_t max_patterns = 2000;
  bool builtin = false;
  bool json = false;  ///< machine-readable report on stdout (CI consumption)
  /// Run the hot-kernel checks (layout proof + differential against the
  /// automaton walked alone, over adversarial traces) instead of the
  /// structural invariants.
  bool kernel_xcheck = false;
};

/// One verified suite, kept for the --json report.
struct SuiteResult {
  std::string name;
  std::size_t patterns = 0;
  std::size_t regexes = 0;
  double seconds = 0;
  std::vector<verify::Diagnostic> diagnostics;
};

json::Value report_json(const std::vector<SuiteResult>& results) {
  json::Array suites;
  std::size_t failures = 0;
  for (const SuiteResult& r : results) {
    json::Array diags;
    for (const auto& d : r.diagnostics) {
      diags.push_back(json::obj({{"code", d.code}, {"message", d.message}}));
    }
    failures += r.diagnostics.size();
    suites.push_back(json::obj({{"name", r.name},
                                {"patterns", r.patterns},
                                {"regexes", r.regexes},
                                {"seconds", r.seconds},
                                {"ok", r.diagnostics.empty()},
                                {"failures", std::move(diags)}}));
  }
  return json::obj({{"ok", failures == 0},
                    {"total_failures", failures},
                    {"suites", std::move(suites)}});
}

SuiteResult run_suite(const std::string& name,
                      const std::vector<std::string>& patterns,
                      const std::vector<std::string>& regexes, bool quiet) {
  Stopwatch watch;
  const dpi::EngineSpec spec = tools::make_spec(patterns, regexes);

  std::vector<verify::Diagnostic> diagnostics;
  auto append = [&diagnostics](std::vector<verify::Diagnostic> more) {
    diagnostics.insert(diagnostics.end(), more.begin(), more.end());
  };
  // Regular and dedicated engines hold the same automaton and tables; the
  // kernel has its own proof (--kernel-xcheck).
  append(verify::verify_engine_spec(spec));

  dpi::PatternDb db;
  tools::populate_db(db, spec);
  append(verify::check_pattern_db(db));
  // Pattern removal must drop the ref but keep shared bytes alive (§4.1);
  // re-check the ref-counts after mutating.
  if (!spec.exact_patterns.empty()) {
    const auto& first = spec.exact_patterns.front();
    db.remove_exact(first.middlebox, first.pattern_id);
    append(verify::check_pattern_db(db));
  }

  if (!quiet) {
    for (const auto& d : diagnostics) {
      std::printf("FAIL %-28s %s: %s\n", name.c_str(), d.code.c_str(),
                  d.message.c_str());
    }
    std::printf("%-28s %4zu patterns, %2zu regexes: %s (%.2f s)\n",
                name.c_str(), patterns.size(), regexes.size(),
                diagnostics.empty() ? "OK" : "FAILED",
                watch.elapsed_seconds());
  }
  return SuiteResult{name, patterns.size(), regexes.size(),
                     watch.elapsed_seconds(), std::move(diagnostics)};
}

/// Splits `stream` into packets of `chunk` bytes (the last may be short).
std::vector<Bytes> split_stream(const Bytes& stream, std::size_t chunk) {
  std::vector<Bytes> out;
  for (std::size_t pos = 0; pos < stream.size(); pos += chunk) {
    const std::size_t len = std::min(chunk, stream.size() - pos);
    out.emplace_back(stream.begin() + static_cast<std::ptrdiff_t>(pos),
                     stream.begin() + static_cast<std::ptrdiff_t>(pos + len));
  }
  return out;
}

/// Adversarial packet sequences for the kernel differential: a clean stream
/// embedding the suite's patterns is pushed through the evasion generator
/// (tiny segments, shuffles, retransmit storms, conflicting overlaps, a
/// 32-bit sequence wrap), normalized under both overlap policies, and split
/// into packet sizes chosen to land pattern matches on and around the
/// kernel's stride boundaries.
std::vector<std::vector<Bytes>> kernel_xcheck_flows(
    const std::vector<std::string>& patterns) {
  Bytes clean;
  const std::string filler = "=filler bytes=";
  std::size_t used = 0;
  for (const std::string& p : patterns) {
    clean.insert(clean.end(), filler.begin(), filler.end());
    clean.insert(clean.end(), p.begin(), p.end());
    if (++used == 48) break;
  }
  const net::FiveTuple flow{net::Ipv4Addr(10, 0, 0, 1),
                            net::Ipv4Addr(10, 0, 0, 2), 40000, 80,
                            net::IpProto::kTcp};
  struct Variant {
    workload::EvasionSpec spec;
    std::size_t packet_bytes;
  };
  std::vector<Variant> variants;
  {
    workload::EvasionSpec s;  // plain small segments
    s.segment_bytes = 8;
    variants.push_back({s, 7});  // 7: every stride (4) boundary drifts
  }
  {
    workload::EvasionSpec s;
    s.seed = 2;
    s.shuffle = true;
    s.retransmit_rate = 0.3;
    variants.push_back({s, 3});  // resume mid-stride on every packet
  }
  {
    workload::EvasionSpec s;
    s.seed = 3;
    s.conflict = workload::ConflictMode::kDecoyLater;
    s.conflict_rate = 0.5;
    variants.push_back({s, 64});
  }
  {
    workload::EvasionSpec s;
    s.seed = 4;
    s.conflict = workload::ConflictMode::kDecoyFirst;
    s.conflict_rate = 0.5;
    variants.push_back({s, 5});
  }
  {
    workload::EvasionSpec s;  // stream straddling the 32-bit seq wrap
    s.seed = 5;
    s.initial_seq = 0xFFFFFFF0u;
    variants.push_back({s, 13});
  }

  std::vector<std::vector<Bytes>> flows;
  for (const Variant& v : variants) {
    const workload::AdversarialTrace trace =
        workload::make_evasion_trace(flow, BytesView(clean), v.spec);
    for (const net::OverlapPolicy policy :
         {net::OverlapPolicy::kFirstWins, net::OverlapPolicy::kLastWins}) {
      const workload::NormalizedView norm = workload::normalize_segments(
          trace.initial_seq, trace.segments, policy);
      if (norm.bytes.empty()) continue;
      flows.push_back(split_stream(norm.bytes, v.packet_bytes));
    }
  }
  flows.push_back({clean});              // one maximal packet
  flows.push_back(split_stream(clean, 1));  // every byte its own packet
  return flows;
}

/// Kernel verification of one suite: compiles the spec twice, as the
/// regular engine that runs the hot kernel and as its kernel-less
/// reference, proves the hot-core layout against the paper's full table
/// built from the same strings, then runs the reference differential over
/// the adversarial flows on both builtin chains (1 = stateless+stateful mix,
/// 2 = stateful only). With `needs_cold_exits` the suite also fails when the
/// hot core holds the whole automaton, since it exists to cover the walk's
/// cold stretches and kernel re-entry.
SuiteResult run_kernel_suite(const std::string& name,
                             const std::vector<std::string>& patterns,
                             const std::vector<std::string>& regexes,
                             bool quiet, bool needs_cold_exits = false) {
  Stopwatch watch;
  const dpi::EngineSpec spec = tools::make_spec(patterns, regexes);
  std::vector<verify::Diagnostic> diagnostics;
  auto append = [&diagnostics](std::vector<verify::Diagnostic> more) {
    diagnostics.insert(diagnostics.end(), more.begin(), more.end());
  };
  std::shared_ptr<const dpi::Engine> engine;
  std::shared_ptr<const dpi::Engine> reference;
  dpi::EngineConfig no_kernel;
  no_kernel.hot_kernel = false;
  try {
    engine = dpi::Engine::compile(spec);
    reference = dpi::Engine::compile(spec, no_kernel);
  } catch (const std::exception& e) {
    diagnostics.push_back(verify::Diagnostic{"compile-error", e.what()});
  }
  if (engine != nullptr && reference != nullptr) {
    if (const ac::HotKernel* kernel = engine->hot_kernel()) {
      append(verify::check_hot_kernel(
          verify::full_table_of(verify::derive_string_table(spec)), *kernel));
      if (needs_cold_exits && kernel->complete()) {
        diagnostics.push_back(verify::Diagnostic{
            "kernel-core-complete",
            "hot core holds all " +
                std::to_string(engine->num_automaton_states()) +
                " states, so no walk leaves it"});
      }
    }
    const auto flows = kernel_xcheck_flows(patterns);
    append(verify::cross_check_kernel(*engine, *reference, 1, flows));
    append(verify::cross_check_kernel(*engine, *reference, 2, flows));
  }
  const std::string suite_name = name + "/kernel";
  if (!quiet) {
    for (const auto& d : diagnostics) {
      std::printf("FAIL %-28s %s: %s\n", suite_name.c_str(), d.code.c_str(),
                  d.message.c_str());
    }
    std::printf("%-28s %4zu patterns, %2zu regexes: %s (%.2f s)\n",
                suite_name.c_str(), patterns.size(), regexes.size(),
                diagnostics.empty() ? "OK" : "FAILED",
                watch.elapsed_seconds());
  }
  return SuiteResult{suite_name, patterns.size(), regexes.size(),
                     watch.elapsed_seconds(), std::move(diagnostics)};
}

void cmd_builtin(std::vector<SuiteResult>& results, bool kernel_xcheck,
                 bool quiet) {
  for (const tools::Suite& suite : tools::builtin_suites()) {
    if (kernel_xcheck) {
      results.push_back(
          run_kernel_suite(suite.name, suite.patterns, suite.regexes, quiet));
    } else {
      results.push_back(
          run_suite(suite.name, suite.patterns, suite.regexes, quiet));
    }
  }
  if (kernel_xcheck) {
    // Too many states for the hot core: walks that go deeper than its depth
    // bound leave it, step the automaton and re-enter the kernel.
    results.push_back(run_kernel_suite(
        "builtin:clamav-cold",
        workload::generate_patterns(workload::clamav_like(5500, 23)), {},
        quiet, /*needs_cold_exits=*/true));
  }
}

void usage() {
  std::fprintf(stderr, R"(usage: dpisvc_check [options]

  --patterns FILE    verify the engine compiled from a pattern file
  --regex EXPR       add a regex registration (repeatable)
  --max-patterns N   cap the number of patterns read from FILE (default 2000)
  --builtin          verify generated snort-like/clamav-like sets and a
                     handcrafted suffix-heavy suite
  --kernel-xcheck    instead of the structural invariants, prove the hot
                     scan kernel: hot-core layout vs the full table, and a
                     differential against the automaton walked alone over
                     adversarial evasion traces (match sets, counters,
                     resumed cursors); with --builtin, one more suite is too
                     large for the hot core and must leave it
  --json             print one machine-readable JSON report on stdout instead
                     of per-suite lines (CI artifact; exit status unchanged)

exit status: 0 = all invariants hold, 1 = violations found, 2 = usage error
)");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--builtin") {
      opt.builtin = true;
    } else if (arg == "--kernel-xcheck") {
      opt.kernel_xcheck = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--patterns" && i + 1 < argc) {
      opt.patterns_file = argv[++i];
    } else if (arg == "--regex" && i + 1 < argc) {
      opt.regexes.push_back(argv[++i]);
    } else if (arg == "--max-patterns" && i + 1 < argc) {
      opt.max_patterns = static_cast<std::size_t>(std::stoull(argv[++i]));
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
      cmd_builtin(results, opt.kernel_xcheck, opt.json);
    }
    if (!opt.patterns_file.empty()) {
      auto patterns = workload::load_patterns(opt.patterns_file);
      if (patterns.size() > opt.max_patterns) {
        patterns.resize(opt.max_patterns);
      }
      if (opt.kernel_xcheck) {
        results.push_back(run_kernel_suite(opt.patterns_file, patterns,
                                           opt.regexes, opt.json));
      } else {
        results.push_back(
            run_suite(opt.patterns_file, patterns, opt.regexes, opt.json));
      }
    }
    std::size_t failures = 0;
    for (const SuiteResult& r : results) {
      failures += r.diagnostics.size();
    }
    if (opt.json) {
      std::printf("%s\n", json::dump(report_json(results)).c_str());
    }
    return failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
