// Deterministic parallel execution of independent tasks.
//
// The harness sweeps share this executor: each (config, seed) cell builds
// its own Rng, delay/fault policies and Simulator from values derived
// purely from the cell's indices, runs one deterministic simulation, and
// yields a result.  So does the sharded runtime: one task per shard builds,
// steps, drains and checks that shard and tears it down, keeping only its
// trace, so a shard never leaves the worker that runs it.
//
// The executor exploits exactly that shape and nothing more:
//
//   * the task function is called once per index into a pre-sized result
//     vector -- which task runs on which thread (or in which order) cannot
//     affect any result;
//   * callers aggregate the results serially, in canonical index order,
//     *after* the map returns -- so the aggregate is byte-identical to the
//     serial run at any --jobs value (regression-tested in
//     tests/test_parallel_sweep.cpp);
//   * the only mutable state shared between workers is the string interning
//     pool (common/intern.h), which is mutex-guarded and value-idempotent.
//
// Exceptions: the first task exception (by completion order) is captured
// and rethrown on the calling thread after all workers join.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace linbound {

/// Hard ceiling for resolve_jobs: requests beyond this are clamped.  Far
/// above any sane worker count, but it keeps a typo'd --jobs 1000000 from
/// spawning a thread per unit of enthusiasm.
inline constexpr int kMaxJobs = 256;

/// Clamp a --jobs request to something sane: 0 means "one per hardware
/// thread", negatives mean serial, anything above kMaxJobs is clamped to
/// kMaxJobs.
int resolve_jobs(int requested);

class ParallelSweepExecutor {
 public:
  /// jobs <= 1 runs everything inline on the calling thread (the serial
  /// baseline, and the default for every sweep).
  explicit ParallelSweepExecutor(int jobs) : jobs_(jobs < 1 ? 1 : jobs) {}

  int jobs() const { return jobs_; }

  /// Evaluate fn(0..count-1) into a vector, spreading the indices over the
  /// worker pool.  R must be default-constructible and movable.
  template <typename R, typename Fn>
  std::vector<R> map(std::size_t count, Fn&& fn) const {
    std::vector<R> out(count);
    if (jobs_ <= 1 || count <= 1) {
      for (std::size_t i = 0; i < count; ++i) out[i] = fn(i);
      return out;
    }
    std::atomic<std::size_t> next{0};
    std::mutex error_mu;
    std::exception_ptr first_error;
    auto worker = [&] {
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          out[i] = fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
      }
    };
    const std::size_t threads =
        std::min(static_cast<std::size_t>(jobs_), count);
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
    if (first_error) std::rethrow_exception(first_error);
    return out;
  }

 private:
  int jobs_;
};

}  // namespace linbound
