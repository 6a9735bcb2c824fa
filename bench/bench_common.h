// Shared configuration and helpers for the table/figure bench binaries.
//
// Default system: n = 4, d = 1000us, u = 400us, and eps set to the OPTIMAL
// skew (1 - 1/n) u = 300us (achievable per the clock-sync substrate; see
// bench_clocksync).  With these numbers eps <= d/3, so the paper's
// tightness conditions hold and the tables print matching LB/UB columns.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "common/format.h"
#include "harness/bounds_table.h"
#include "harness/experiment.h"
#include "common/parallel.h"

namespace linbound::bench {

/// Hardware threads visible to this process; never 0 (unknown reports as 1).
inline unsigned hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

/// Are wall-clock speedup assertions meaningful on this box?  A host with
/// fewer than 4 hardware threads cannot demonstrate parallel scaling, and
/// its timing is noisy enough that even structural (calendar-vs-heap)
/// ratios misfire -- a 1-thread CI box would keep recording ~1.0 "speedups"
/// as passing baselines.  Every perf binary (bench_perf, bench_throughput,
/// bench_shard) funnels its speedup gate through this, softening to
/// identity/bounds-only checks when it returns false; the measured
/// *_speedup values are still reported, with *_speedup_threads siblings so
/// a reader can tell a genuine ~1.0 regression from a thread-starved
/// measurement.  `jobs` is the worker count the gated phase actually used.
inline bool speedup_gates_enforced(int jobs = kMaxJobs) {
  return jobs >= 4 && hardware_threads() >= 4;
}

/// Monotonic wall-clock for every bench timing: steady_clock only (never
/// system_clock, which can jump under NTP and corrupt a measurement).
inline double now_seconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

/// The process's peak resident set so far, in MiB (getrusage's
/// ru_maxrss, which Linux reports in KiB).
inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Scoped phase timer: accumulate per-phase wall clock (e.g. simulate vs
/// check) into named buckets for the JSON breakdown.
class Stopwatch {
 public:
  Stopwatch() : start_(now_seconds()) {}
  double lap() {
    const double now = now_seconds();
    const double elapsed = now - start_;
    start_ = now;
    return elapsed;
  }

 private:
  double start_;
};

/// Flat JSON report shared by the perf binaries: bench_perf and
/// bench_throughput both merge their keys into the one BENCH_perf.json
/// committed at the repo root (and uploaded by the perf CI workflow), so
/// either can run alone without clobbering the other's section.  The format
/// is deliberately minimal -- one `"key": value` pair per line, insertion
/// ordered -- which is what load() parses back.
class JsonReport {
 public:
  explicit JsonReport(std::string path) : path_(std::move(path)) { load(); }

  void set(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    put(key, buf);
  }
  void set(const std::string& key, std::uint64_t value) {
    put(key, std::to_string(value));
  }
  void set(const std::string& key, unsigned value) {
    put(key, std::to_string(value));
  }
  void set(const std::string& key, int value) { put(key, std::to_string(value)); }
  void set(const std::string& key, long long value) {
    put(key, std::to_string(value));
  }
  void set(const std::string& key, bool value) {
    put(key, value ? "true" : "false");
  }

  bool write() const {
    std::ofstream out(path_);
    if (!out) return false;
    out << "{\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out << "  \"" << entries_[i].first << "\": " << entries_[i].second
          << (i + 1 < entries_.size() ? "," : "") << "\n";
    }
    out << "}\n";
    return bool(out);
  }

  const std::string& path() const { return path_; }

 private:
  void put(const std::string& key, std::string value) {
    for (auto& entry : entries_) {
      if (entry.first == key) {
        entry.second = std::move(value);
        return;
      }
    }
    entries_.emplace_back(key, std::move(value));
  }

  /// Best-effort parse of a previous report (our own flat format only);
  /// anything unparseable starts the report fresh.
  void load() {
    std::ifstream in(path_);
    if (!in) return;
    std::string line;
    while (std::getline(in, line)) {
      const auto open = line.find('"');
      if (open == std::string::npos) continue;
      const auto close = line.find('"', open + 1);
      if (close == std::string::npos) continue;
      const auto colon = line.find(':', close);
      if (colon == std::string::npos) continue;
      std::string value = line.substr(colon + 1);
      while (!value.empty() && (value.back() == ',' || value.back() == ' ' ||
                                value.back() == '\r')) {
        value.pop_back();
      }
      const auto start = value.find_first_not_of(' ');
      if (start == std::string::npos) continue;
      put(line.substr(open + 1, close - open - 1), value.substr(start));
    }
  }

  std::string path_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

inline constexpr int kN = 4;

inline SystemTiming default_timing() {
  SystemTiming t;
  t.d = 1000;
  t.u = 400;
  t.eps = 300;  // optimal: (1 - 1/4) * 400
  return t;
}

inline SweepOptions default_sweep(Tick x, int jobs = 1) {
  SweepOptions o;
  o.n = kN;
  o.timing = default_timing();
  o.x = x;
  o.seeds = 6;
  o.jobs = jobs;
  return o;
}

/// Parse `--jobs N` / `--jobs=N` from argv (0 = one worker per hardware
/// thread; default 1 = serial).  Sweep results are byte-identical at any
/// value -- the flag trades wall-clock only.
inline int parse_jobs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      return resolve_jobs(std::atoi(argv[i + 1]));
    }
    if (arg.rfind("--jobs=", 0) == 0) {
      return resolve_jobs(std::atoi(arg.c_str() + 7));
    }
  }
  return 1;
}

inline void print_header(const std::string& title) {
  std::printf("\n################################################################\n");
  std::printf("# %s\n", title.c_str());
  std::printf("################################################################\n\n");
}

inline void print_sweep_status(const char* label, const SweepResult& result) {
  std::printf("%-28s %3d runs, %s\n", label, result.runs,
              result.all_linearizable() ? "all linearizable"
                                        : "LINEARIZABILITY VIOLATED");
}

/// Common exit convention: 0 when every consistency expectation held.
inline int finish(bool ok) {
  std::printf("\n%s\n", ok ? "RESULT: PASS" : "RESULT: FAIL");
  return ok ? 0 : 1;
}

}  // namespace linbound::bench
