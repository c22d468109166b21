// Small utilities of the benchmark driver: clocks, statistics, hashing, and
// the in-memory span log of the traced run.
#pragma once

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
inline std::uint64_t now_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// CPU time consumed by every thread of this process, in nanoseconds.
inline std::uint64_t process_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Resident set size of this process in bytes (0 when unavailable).
inline std::uint64_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  return got == 2 ? resident * 4096ull : 0;
}

/// Minor page faults this process has taken so far.
inline std::uint64_t minor_faults() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

/// CPUs the calling thread may run on, in ascending order.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Restricts the calling thread (and threads it creates afterwards) to
/// `cpus`; a no-op for an empty list.
inline void run_on(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// splitmix64 finalizer: a bijective 64-bit mix.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Linear-interpolated quantile (q in [0, 1]) of raw samples; 0 when empty.
/// Sorts `values` in place.
inline double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(values, 0.5);
}

/// Named spans of the traced run. A span records its name, start, end,
/// parent and packet id; spans nest through an explicit open stack, and each
/// name's self time (its duration minus its direct children's) is totalled
/// as spans close, so totals cover every span even when the stored log is
/// capped. The stored spans are written out as TSV when the run ends.
class SpanLog {
 public:
  enum Name : std::uint8_t {
    kAttach,
    kCreateInstance,
    kBuildPackets,
    kProcessBatch,
    kDecodeReport,
    kApplyVerdicts,
    kReplayPacket,
    kDefragFeed,
    kDefragTick,
    kReassemblyFeed,
    kFlowLookup,
    kFlowUpdate,
    kScanPacket,
    kTraverseOnly,
    kEncodeReport,
    kNumNames,
  };
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  static const char* name_of(Name name) noexcept {
    static const char* const kNames[kNumNames] = {
        "mbox.attach",        "dpi.create_instance", "workload.build_packets",
        "service.process_batch", "net.decode_report", "mbox.apply_report_entries",
        "replay.packet",      "net.defrag.feed",     "net.defrag.tick",
        "net.reassembly.feed", "dpi.flowtable.lookup", "dpi.flowtable.update",
        "dpi.scan_packet",    "ac.traverse_only",    "net.encode_report"};
    return kNames[name];
  }

  explicit SpanLog(bool enabled = false, std::size_t max_stored = 100000)
      : enabled_(enabled), max_stored_(max_stored) {}

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Opens a span as a child of the innermost open span.
  void open(Name name, std::uint32_t packet = 0) {
    if (!enabled_) return;
    Open o;
    o.name = name;
    o.packet = packet;
    o.start = now_ns();
    o.parent_id = stack_.empty() ? kNoParent : stack_.back().id;
    o.id = next_id_++;
    stack_.push_back(o);
  }

  /// Closes the innermost open span; returns its duration in ns.
  std::uint64_t close() {
    if (!enabled_ || stack_.empty()) return 0;
    const std::uint64_t end = now_ns();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = end - o.start;
    self_ns_[o.name] += dur > o.children_ns ? dur - o.children_ns : 0;
    total_ns_[o.name] += dur;
    ++count_[o.name];
    if (!stack_.empty()) stack_.back().children_ns += dur;
    if (stored_.size() < max_stored_) {
      stored_.push_back(Stored{o.start, end, o.id, o.parent_id, o.packet, o.name});
    } else {
      ++dropped_;
    }
    return dur;
  }

  std::uint64_t self_ns(Name name) const noexcept { return self_ns_[name]; }
  std::uint64_t total_ns(Name name) const noexcept { return total_ns_[name]; }
  std::uint64_t count(Name name) const noexcept { return count_[name]; }

  /// Writes the stored spans (id, parent, name, packet, start, end) as TSV.
  bool write_tsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "# spans stored %zu, dropped past the cap %llu\n",
                 stored_.size(), static_cast<unsigned long long>(dropped_));
    std::fprintf(f, "id\tparent\tname\tpacket\tstart_ns\tend_ns\n");
    for (const Stored& s : stored_) {
      std::fprintf(f, "%u\t%lld\t%s\t%u\t%llu\t%llu\n", s.id,
                   s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                   name_of(s.name), s.packet,
                   static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    std::uint64_t start = 0;
    std::uint64_t children_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent_id = kNoParent;
    std::uint32_t packet = 0;
    Name name = kAttach;
  };
  struct Stored {
    std::uint64_t start;
    std::uint64_t end;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint32_t packet;
    Name name;
  };

  bool enabled_;
  std::size_t max_stored_;
  std::uint32_t next_id_ = 0;
  std::vector<Open> stack_;
  std::vector<Stored> stored_;
  std::uint64_t dropped_ = 0;
  std::uint64_t self_ns_[kNumNames] = {};
  std::uint64_t total_ns_[kNumNames] = {};
  std::uint64_t count_[kNumNames] = {};
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(SpanLog& log, SpanLog::Name name, std::uint32_t packet = 0) : log_(log) {
    log_.open(name, packet);
  }
  ~Span() { log_.close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog& log_;
};

}  // namespace perfbench
