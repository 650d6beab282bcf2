#include "common/executor.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace zenith {

std::size_t default_bench_threads() {
  const char* env = std::getenv("ZENITH_BENCH_THREADS");
  if (env != nullptr && env[0] != '\0') {
    char* end = nullptr;
    long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1) {
      return static_cast<std::size_t>(std::min(parsed, 64L));
    }
    std::fprintf(stderr,
                 "[WARN  parallel] ignoring ZENITH_BENCH_THREADS='%s' "
                 "(want an integer >= 1)\n",
                 env);
  }
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return 1;
  return std::min<std::size_t>(4, hw);
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  threads = std::min(threads, n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto worker = [&] {
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace zenith
