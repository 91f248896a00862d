// The sweep runner's fan-out: run an index range across worker threads.
//
// It imposes no ordering of its own: deterministic users give every index
// a slot in a pre-sized results array, so the final output is a pure
// function of the inputs regardless of thread count or schedule.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace paratick::core {

/// Run body(0), ..., body(n-1) on up to `threads` workers (0 = one per
/// hardware thread), the calling thread among them, that claim indices
/// from a shared counter; with one worker everything runs inline. Every
/// index runs once, even after another one threw: the first exception is
/// kept and rethrown once every worker has been joined.
inline void parallel_for_index(std::size_t n, unsigned threads,
                               const std::function<void(std::size_t)>& body) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        body(i);
      } catch (...) {
        std::scoped_lock lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  // The calling thread is one of the workers. work() never throws, so
  // every started thread is joined.
  const std::size_t workers = std::min<std::size_t>(threads, n);
  std::vector<std::thread> others;
  if (workers > 1) others.reserve(workers - 1);
  try {
    while (others.size() + 1 < workers) others.emplace_back(work);
  } catch (const std::system_error&) {
    // No more threads to be had: the ones running finish the range.
  }
  work();
  for (std::thread& t : others) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace paratick::core
