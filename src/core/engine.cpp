#include "core/engine.hpp"

#include <algorithm>
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

void CampaignEngine::run_ordered(std::size_t count, const std::function<void(std::size_t)>& work,
                                 const std::function<void(std::size_t)>& emit) {
  const std::size_t jobs = std::min(static_cast<std::size_t>(jobs_), count);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      work(i);
      if (emit) {
        emit(i);
      }
    }
    return;
  }

  // Indices are claimed in increasing order, so every index below the
  // lowest failure was claimed and completes: the emitted prefix is exactly
  // the serial campaign's, 0 .. failed_at - 1.
  std::mutex mu;
  std::condition_variable cv;  // only the calling thread waits on it
  std::vector<char> done(count, 0);
  std::size_t next = 0;
  std::size_t failed_at = count;  // lowest failed index; count = none
  std::exception_ptr error;       // failed_at's exception

  // fn(i) runs unlocked (index i's slot is owned by its caller), so slow
  // work or emission never blocks the others. `lock` is held around it.
  auto call = [&](std::unique_lock<std::mutex>& lock,
                  const std::function<void(std::size_t)>& fn, std::size_t i) {
    lock.unlock();
    std::exception_ptr e;
    try {
      fn(i);
    } catch (...) {
      e = std::current_exception();
    }
    lock.lock();
    if (e != nullptr && i < failed_at) {
      failed_at = i;
      error = std::move(e);
    }
  };

  {
    std::vector<std::jthread> pool;  // joins on scope exit, after `lock` unlocks
    pool.reserve(jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
      pool.emplace_back([&] {
        std::unique_lock<std::mutex> lock{mu};
        while (next < count && failed_at == count) {
          const std::size_t i = next++;
          call(lock, work, i);
          done[i] = 1;
          cv.notify_one();
        }
      });
    }
    std::unique_lock<std::mutex> lock{mu};
    for (std::size_t i = 0; emit && i < count; ++i) {
      cv.wait(lock, [&] { return done[i] != 0 || i >= failed_at; });
      if (i >= failed_at) {
        break;
      }
      call(lock, emit, i);
    }
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

std::vector<ExperimentResult> CampaignEngine::run(const std::vector<ExperimentConfig>& configs,
                                                  const ResultHook& on_result,
                                                  CheckpointSession* session) {
  if (session != nullptr && jobs_ != 1) {
    throw std::invalid_argument{
        "CampaignEngine: checkpoint sessions are serial; run them at jobs == 1"};
  }
  const std::size_t n = configs.size();
  std::vector<ExperimentResult> results(n);
  std::vector<char> fresh(n, 0);  // run here, not replayed: commit it
  RunServices services;
  services.calibration = &cache_;
  run_ordered(
      n,
      [&](std::size_t i) {
        std::optional<ExperimentResult> replayed;
        if (session != nullptr) {
          replayed = session->try_replay(configs[i]);
        }
        fresh[i] = !replayed;
        results[i] = replayed ? std::move(*replayed) : run_experiment(configs[i], session, services);
      },
      [&](std::size_t i) {
        if (on_result) {
          on_result(i, results[i]);
        }
        if (session != nullptr && fresh[i] != 0) {
          session->commit(configs[i], results[i]);
        }
      });
  if (session != nullptr) {
    session->check_interrupt();
  }
  return results;
}

void CampaignEngine::for_each_index(std::size_t count,
                                    const std::function<void(std::size_t)>& fn) {
  run_ordered(count, fn, {});
}

}  // namespace greencap::core
