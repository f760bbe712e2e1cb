#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/run_context.hpp"

namespace greencap::core {

int resolve_jobs(int jobs) {
  if (jobs > 0) {
    return jobs;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

CampaignEngine::CampaignEngine(EngineOptions options) : jobs_{resolve_jobs(options.jobs)} {}

std::vector<ExperimentResult> CampaignEngine::run(const std::vector<ExperimentConfig>& configs,
                                                  const ResultHook& on_result,
                                                  CheckpointSession* session) {
  if (session != nullptr && jobs_ != 1) {
    throw std::invalid_argument{
        "CampaignEngine: checkpoint sessions are serial; run them at jobs == 1"};
  }
  const std::size_t n = configs.size();
  std::vector<ExperimentResult> results(n);

  RunServices services;
  services.calibration = &cache_;

  if (session != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      std::optional<ExperimentResult> replayed = session->try_replay(configs[i]);
      results[i] = replayed ? std::move(*replayed) : run_experiment(configs[i], session, services);
      if (on_result) {
        on_result(i, results[i]);
      }
      if (!replayed) {
        session->commit(configs[i], results[i]);
      }
    }
    session->check_interrupt();
    return results;
  }

  const int jobs = std::min<int>(jobs_, static_cast<int>(std::max<std::size_t>(n, 1)));
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      results[i] = run_experiment(configs[i], services);
      if (on_result) {
        on_result(i, results[i]);
      }
    }
    return results;
  }

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::exception_ptr> errors(n);
  std::vector<char> done(n, 0);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};

  auto worker = [&] {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) {
        return;  // drain: stop claiming, let already-finished work stand
      }
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      try {
        ExperimentResult r = run_experiment(configs[i], services);
        {
          const std::lock_guard<std::mutex> lock{mu};
          results[i] = std::move(r);
          done[i] = 1;
        }
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock{mu};
          errors[i] = std::current_exception();
          done[i] = 1;
        }
        failed.store(true, std::memory_order_relaxed);
      }
      cv.notify_all();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs));
  for (int j = 0; j < jobs; ++j) {
    pool.emplace_back(worker);
  }

  // The calling thread streams completed prefixes out in index order while
  // the pool keeps working — exactly the serial emission schedule.
  std::size_t emitted = 0;
  {
    std::unique_lock<std::mutex> lock{mu};
    while (emitted < n) {
      cv.wait(lock, [&] { return done[emitted] != 0 || failed.load(); });
      if (done[emitted] == 0) {
        break;  // a later index failed; stop emitting, join, rethrow below
      }
      if (errors[emitted] != nullptr) {
        break;
      }
      if (on_result) {
        // The hook may do slow I/O; results are index-owned, so unlocking
        // is safe — workers only touch slots the emitter has not reached.
        lock.unlock();
        on_result(emitted, results[emitted]);
        lock.lock();
      }
      ++emitted;
    }
  }

  for (std::thread& t : pool) {
    t.join();
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i] != nullptr) {
      std::rethrow_exception(errors[i]);
    }
  }
  return results;
}

void CampaignEngine::for_each_index(std::size_t count,
                                    const std::function<void(std::size_t)>& fn) {
  const int jobs = std::min<int>(jobs_, static_cast<int>(std::max<std::size_t>(count, 1)));
  if (jobs <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  auto worker = [&] {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) {
        return;
      }
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) {
        return;
      }
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs));
  for (int j = 0; j < jobs; ++j) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) {
    t.join();
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (errors[i] != nullptr) {
      std::rethrow_exception(errors[i]);
    }
  }
}

}  // namespace greencap::core
