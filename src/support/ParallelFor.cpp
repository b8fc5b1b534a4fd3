//===- ParallelFor.cpp - Atomic-index worker pool ---------------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ParallelFor.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace an5d {

int resolveSweepThreads(int Requested) {
  if (Requested >= 1)
    return Requested;
  unsigned Hardware = std::thread::hardware_concurrency();
  if (Hardware == 0)
    Hardware = 1;
  return static_cast<int>(std::min(Hardware, 8u));
}

void parallelFor(std::size_t Count, int Threads,
                 const std::function<void(std::size_t)> &Body) {
  std::atomic<std::size_t> NextItem{0};
  // An exception must not escape a helper thread (that terminates the
  // process): the first one is kept, the remaining items are dropped,
  // and it is rethrown on the caller once every worker has joined.
  std::mutex FailureMutex;
  std::exception_ptr Failure;
  auto Worker = [&]() {
    try {
      for (std::size_t Item;
           (Item = NextItem.fetch_add(1, std::memory_order_relaxed)) <
           Count;)
        Body(Item);
    } catch (...) {
      std::lock_guard<std::mutex> Lock(FailureMutex);
      if (!Failure)
        Failure = std::current_exception();
      NextItem.store(Count, std::memory_order_relaxed);
    }
  };

  std::size_t NumWorkers = std::min<std::size_t>(
      static_cast<std::size_t>(resolveSweepThreads(Threads)), Count);
  // The calling thread is worker zero; NumWorkers - 1 helpers join it.
  // A helper the system refuses to start only leaves fewer workers: the
  // ones already running still drain every item and are joined below.
  std::vector<std::thread> Helpers;
  if (NumWorkers > 1)
    Helpers.reserve(NumWorkers - 1);
  for (std::size_t I = 1; I < NumWorkers; ++I) {
    try {
      Helpers.emplace_back(Worker);
    } catch (const std::system_error &) {
      break;
    }
  }
  Worker();
  for (std::thread &Helper : Helpers)
    Helper.join();
  if (Failure)
    std::rethrow_exception(Failure);
}

} // namespace an5d
