// dpisvc — command-line front end for the DPI-service library.
//
//   dpisvc gen-patterns --style snort|clamav --count N [--seed S] --out FILE
//   dpisvc gen-trace    --packets N [--seed S] [--match-rate R]
//                       [--style http|random] [--patterns FILE] --out FILE
//   dpisvc inspect      --patterns FILE [--compressed]
//   dpisvc scan         --patterns FILE --trace FILE [--compressed]
//                       [--decompress] [--verbose]
//   dpisvc bench        --patterns FILE --trace FILE [--mb N] [--compressed]
//
// Everything the CLI does goes through the public library API; it exists so
// the engine can be driven from shell scripts and CI without writing C++.
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "common/timer.hpp"
#include "dpi/engine.hpp"
#include "service/instance.hpp"
#include "workload/pattern_gen.hpp"
#include "workload/trace_io.hpp"
#include "workload/traffic_gen.hpp"

using namespace dpisvc;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  const std::string& require(const std::string& key) const {
    auto it = options.find(key);
    if (it == options.end()) {
      throw std::invalid_argument("missing required option --" + key);
    }
    return it->second;
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }

  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : std::stoull(it->second);
  }

  double get_double(const std::string& key, double fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : std::stod(it->second);
  }

  bool has_flag(const std::string& key) const {
    return options.count(key) > 0;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) {
    throw std::invalid_argument("no command given");
  }
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument: " + token);
    }
    const std::string key = token.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.options[key] = argv[++i];
    } else {
      args.options[key] = "";  // boolean flag
    }
  }
  return args;
}

std::shared_ptr<const dpi::Engine> compile_engine(
    const std::vector<std::string>& patterns, bool compressed) {
  dpi::EngineSpec spec;
  dpi::MiddleboxProfile profile;
  profile.id = 1;
  profile.name = "cli";
  spec.middleboxes = {profile};
  dpi::PatternId id = 0;
  for (const std::string& p : patterns) {
    spec.exact_patterns.push_back(dpi::ExactPatternSpec{p, 1, id++});
  }
  spec.chains[1] = {1};
  dpi::EngineConfig config;
  config.hot_kernel = !compressed;  // --compressed: a dedicated engine
  return dpi::Engine::compile(spec, config);
}

int cmd_gen_patterns(const Args& args) {
  const std::string style = args.get("style", "snort");
  const auto count = static_cast<std::size_t>(args.get_u64("count", 1000));
  const std::uint64_t seed = args.get_u64("seed", 17);
  workload::PatternSetConfig config = style == "clamav"
                                          ? workload::clamav_like(count, seed)
                                          : workload::snort_like(count, seed);
  const auto patterns = workload::generate_patterns(config);
  workload::save_patterns(args.require("out"), patterns);
  std::printf("wrote %zu %s-like patterns to %s\n", patterns.size(),
              style.c_str(), args.require("out").c_str());
  return 0;
}

int cmd_gen_trace(const Args& args) {
  workload::TrafficConfig config;
  config.num_packets = static_cast<std::size_t>(args.get_u64("packets", 1000));
  config.seed = args.get_u64("seed", 7);
  config.planted_match_rate = args.get_double("match-rate", 0.05);
  config.num_flows = static_cast<std::size_t>(args.get_u64("flows", 64));
  if (args.options.count("patterns")) {
    auto patterns = workload::load_patterns(args.require("patterns"));
    const std::size_t take = std::min<std::size_t>(patterns.size(), 32);
    config.planted_patterns.assign(patterns.begin(),
                                   patterns.begin() + static_cast<long>(take));
  }
  const std::string style = args.get("style", "http");
  const workload::Trace trace = style == "random"
                                    ? workload::generate_random_trace(config)
                                    : workload::generate_http_trace(config);
  workload::save_trace(args.require("out"), trace);
  std::printf("wrote %zu packets (%zu payload bytes) to %s\n", trace.size(),
              workload::total_payload_bytes(trace),
              args.require("out").c_str());
  return 0;
}

int cmd_inspect(const Args& args) {
  const auto patterns = workload::load_patterns(args.require("patterns"));
  Stopwatch build;
  auto engine = compile_engine(patterns, args.has_flag("compressed"));
  std::printf("patterns:          %zu\n", patterns.size());
  std::printf("distinct strings:  %zu\n", engine->num_distinct_strings());
  std::printf("automaton:         %s\n",
              engine->kernel_active() ? "failure-link + hot kernel"
                                      : "failure-link (no kernel)");
  std::printf("states:            %u\n", engine->num_automaton_states());
  std::printf("memory:            %.2f MB + %.2f MB kernel\n",
              engine->memory_bytes() / 1e6,
              engine->kernel_memory_bytes() / 1e6);
  std::printf("build time:        %.2f s\n", build.elapsed_seconds());
  return 0;
}

int cmd_scan(const Args& args) {
  const auto patterns = workload::load_patterns(args.require("patterns"));
  const auto trace = workload::load_trace(args.require("trace"));
  service::InstanceConfig config;
  config.decompress_payloads = args.has_flag("decompress");
  service::DpiInstance instance("cli", config);
  instance.load_engine(compile_engine(patterns, args.has_flag("compressed")),
                       1);

  std::size_t match_packets = 0;
  std::size_t total_matches = 0;
  for (const workload::TracePacket& p : trace) {
    const auto result = instance.scan(1, p.tuple, p.payload);
    if (!result.has_matches()) continue;
    ++match_packets;
    for (const auto& section : result.matches) {
      for (const auto& entry : section.entries) {
        total_matches += entry.run_length;
        if (args.has_flag("verbose")) {
          std::printf("%s rule=%u pos=%u x%u\n", p.tuple.to_string().c_str(),
                      entry.pattern_id, entry.position, entry.run_length);
        }
      }
    }
  }
  const auto& t = instance.telemetry();
  std::printf("packets:          %llu\n",
              static_cast<unsigned long long>(t.packets));
  std::printf("bytes scanned:    %llu\n",
              static_cast<unsigned long long>(t.bytes));
  std::printf("matching packets: %zu (%.1f%%)\n", match_packets,
              trace.empty() ? 0.0
                            : 100.0 * static_cast<double>(match_packets) /
                                  static_cast<double>(trace.size()));
  std::printf("total matches:    %zu\n", total_matches);
  std::printf("decompressed:     %llu packets\n",
              static_cast<unsigned long long>(t.decompressed_packets));
  std::printf("throughput:       %.0f Mbps\n",
              to_mbps(t.bytes, t.busy_seconds));
  return 0;
}

int cmd_bench(const Args& args) {
  const auto patterns = workload::load_patterns(args.require("patterns"));
  const auto trace = workload::load_trace(args.require("trace"));
  auto engine = compile_engine(patterns, args.has_flag("compressed"));
  const std::uint64_t target_bytes = args.get_u64("mb", 64) << 20;
  const std::uint64_t trace_bytes = workload::total_payload_bytes(trace);
  if (trace_bytes == 0) {
    std::fprintf(stderr, "empty trace\n");
    return 1;
  }
  for (const auto& p : trace) {
    (void)engine->scan_packet(1, p.payload);  // warm-up
  }
  std::uint64_t scanned = 0;
  Stopwatch watch;
  while (scanned < target_bytes) {
    for (const auto& p : trace) {
      (void)engine->scan_packet(1, p.payload);
    }
    scanned += trace_bytes;
  }
  const double seconds = watch.elapsed_seconds();
  std::printf("%llu bytes in %.2f s = %.0f Mbps\n",
              static_cast<unsigned long long>(scanned), seconds,
              to_mbps(scanned, seconds));
  return 0;
}

void usage() {
  std::fprintf(stderr, R"(usage: dpisvc <command> [options]

commands:
  gen-patterns  --style snort|clamav --count N [--seed S] --out FILE
  gen-trace     --packets N [--seed S] [--match-rate R] [--flows F]
                [--style http|random] [--patterns FILE] --out FILE
  inspect       --patterns FILE [--compressed]
  scan          --patterns FILE --trace FILE [--compressed] [--decompress]
                [--verbose]
  bench         --patterns FILE --trace FILE [--mb N] [--compressed]
)");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "gen-patterns") return cmd_gen_patterns(args);
    if (args.command == "gen-trace") return cmd_gen_trace(args);
    if (args.command == "inspect") return cmd_inspect(args);
    if (args.command == "scan") return cmd_scan(args);
    if (args.command == "bench") return cmd_bench(args);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 1;
  }
}
