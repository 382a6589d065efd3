// Deterministic parallel sweep driver (the engine behind the figure benches'
// `--jobs N` flag; the partitioned driver, docs/partitioning.md, runs its
// own worker threads).
//
// Thread-safety contract — this is the pattern the tile-escape lint
// (docs/static-analysis.md) exists to preserve: each task is self-contained
// (builds its own CmpSystem, one StatRegistry per run, nothing shared), the
// work queue is a single atomic cursor, and every result is written to a
// distinct, pre-sized vector slot owned by exactly one task. No lock is
// needed because no mutable state is shared; the TSan CI job and
// tests/test_parallel_sweep.cpp keep that claim honest.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <thread>
#include <vector>

namespace tcmp {

/// Run `task(i)` for every i in [0, n) across `jobs` worker threads and
/// return the results indexed by task, so callers consume output whose
/// content is identical at any job count. With `progress` set, per-task
/// completion lines go to stderr (stdout is never touched here).
template <typename Task>
[[nodiscard]] auto parallel_sweep(std::size_t n, unsigned jobs, Task task,
                                  bool progress = false)
    -> std::vector<decltype(task(std::size_t{0}))> {
  std::vector<decltype(task(std::size_t{0}))> results(n);
  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      results[i] = task(i);
      if (progress) std::fprintf(stderr, "  [%zu/%zu] runs done\n", i + 1, n);
    }
    return results;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      results[i] = task(i);
      const std::size_t done = completed.fetch_add(1) + 1;
      if (progress) std::fprintf(stderr, "  [%zu/%zu] runs done\n", done, n);
    }
  };
  const auto n_workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs, n));
  std::vector<std::thread> pool;
  pool.reserve(n_workers);
  for (unsigned w = 0; w < n_workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return results;
}

}  // namespace tcmp
