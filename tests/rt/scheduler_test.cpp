// Scheduling-policy unit tests against a mock SchedulerContext with
// hand-set estimates, so placement decisions are tested in isolation.
#include "rt/scheduler.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "hw/presets.hpp"

namespace greencap::rt {
namespace {

class FakeContext final : public SchedulerContext {
 public:
  FakeContext()
      : cpu_{hw::presets::xeon_gold_6126(), 0},
        gpu_{hw::presets::a100_sxm4(), 0} {
    workers_.emplace_back(0, &gpu_, 1);  // cuda worker
    workers_.emplace_back(1, &cpu_);             // cpu worker
    workers_.emplace_back(2, &cpu_);             // cpu worker
  }

  std::vector<Worker>& workers() override { return workers_; }
  sim::SimTime now() const override { return now_; }
  sim::Xoshiro256& rng() override { return rng_; }

  sim::SimTime estimate_exec(const Task& task, const Worker& worker) override {
    exec_calls.push_back(worker.id());
    const auto it = exec_.find({task.id(), worker.id()});
    return it != exec_.end() ? it->second : sim::SimTime::seconds(1.0);
  }
  // The "model" knows exactly the set_exec entries; estimate_exec's 1 s
  // default stands in for the device oracle.
  void expected_exec_row(const Task& task, std::span<double> out) override {
    ++row_calls;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto it = exec_.find({task.id(), workers_[i].id()});
      out[i] = it != exec_.end() ? it->second.sec() : std::numeric_limits<double>::quiet_NaN();
    }
  }
  sim::SimTime estimate_transfer(const Task& task, const Worker& worker) override {
    ++transfer_calls;
    const auto it = xfer_.find({task.id(), worker.id()});
    return it != xfer_.end() ? it->second : sim::SimTime::zero();
  }
  double locality_fraction(const Task& task, const Worker& worker) override {
    const auto it = locality_.find({task.id(), worker.id()});
    return it != locality_.end() ? it->second : 0.0;
  }
  double estimate_energy(const Task& task, const Worker& worker) override {
    const auto it = energy_.find({task.id(), worker.id()});
    return it != energy_.end() ? it->second : 1.0;
  }

  void set_exec(TaskId t, WorkerId w, double s) { exec_[{t, w}] = sim::SimTime::seconds(s); }
  void set_xfer(TaskId t, WorkerId w, double s) { xfer_[{t, w}] = sim::SimTime::seconds(s); }
  void set_locality(TaskId t, WorkerId w, double f) { locality_[{t, w}] = f; }
  void set_energy(TaskId t, WorkerId w, double joules) { energy_[{t, w}] = joules; }

  int transfer_calls = 0;
  int row_calls = 0;
  std::vector<WorkerId> exec_calls;
  sim::SimTime now_;
  hw::CpuModel cpu_;
  hw::GpuModel gpu_;
  std::vector<Worker> workers_;
  sim::Xoshiro256 rng_{7};
  std::map<std::pair<TaskId, WorkerId>, sim::SimTime> exec_;
  std::map<std::pair<TaskId, WorkerId>, sim::SimTime> xfer_;
  std::map<std::pair<TaskId, WorkerId>, double> locality_;
  std::map<std::pair<TaskId, WorkerId>, double> energy_;
};

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() {
    any_.name = "any";
    any_.where = kWhereAny;
    cuda_only_.name = "cuda_only";
    cuda_only_.where = kWhereCuda;
    cpu_only_.name = "cpu_only";
    cpu_only_.where = kWhereCpu;
  }

  Task& make_task(const Codelet& cl, std::int64_t priority = 0) {
    tasks_.push_back(std::make_unique<Task>(static_cast<TaskId>(tasks_.size()), &cl,
                                            hw::KernelWork{}));
    tasks_.back()->priority = priority;
    tasks_.back()->state = TaskState::kReady;
    return *tasks_.back();
  }

  FakeContext ctx_;
  Codelet any_, cuda_only_, cpu_only_;
  std::vector<std::unique_ptr<Task>> tasks_;
};

// -- factory ------------------------------------------------------------------

TEST_F(SchedulerTest, FactoryKnowsAllPolicies) {
  for (const char* name :
       {"eager", "prio", "random", "ws", "lws", "dm", "dmda", "dmdas", "dmdae"}) {
    const auto sched = make_scheduler(name);
    EXPECT_EQ(sched->name(), name);
  }
  EXPECT_THROW(make_scheduler("heft-9000"), std::invalid_argument);
}

TEST_F(SchedulerTest, PrioPopsHighestPriorityFirst) {
  auto sched = make_scheduler("prio");
  sched->attach(ctx_);
  Task& low = make_task(any_, 1);
  Task& high = make_task(any_, 9);
  Task& mid = make_task(any_, 5);
  sched->push_ready(low);
  sched->push_ready(high);
  sched->push_ready(mid);
  EXPECT_EQ(sched->pop(ctx_.workers()[0]), &high);
  EXPECT_EQ(sched->pop(ctx_.workers()[0]), &mid);
  EXPECT_EQ(sched->pop(ctx_.workers()[0]), &low);
}

TEST_F(SchedulerTest, PrioEqualPrioritiesStayFifo) {
  auto sched = make_scheduler("prio");
  sched->attach(ctx_);
  Task& first = make_task(any_, 3);
  Task& second = make_task(any_, 3);
  sched->push_ready(first);
  sched->push_ready(second);
  EXPECT_EQ(sched->pop(ctx_.workers()[0]), &first);
  EXPECT_EQ(sched->pop(ctx_.workers()[0]), &second);
}

TEST_F(SchedulerTest, PrioSkipsIneligible) {
  auto sched = make_scheduler("prio");
  sched->attach(ctx_);
  Task& gpu_task = make_task(cuda_only_, 9);
  Task& cpu_task = make_task(any_, 1);
  sched->push_ready(gpu_task);
  sched->push_ready(cpu_task);
  EXPECT_EQ(sched->pop(ctx_.workers()[1]), &cpu_task);  // CPU worker skips CUDA task
}

TEST_F(SchedulerTest, LwsStealsFromLocalityRichVictim) {
  auto sched = make_scheduler("lws");
  sched->attach(ctx_);
  // Round-robin placement puts the three tasks on workers 0, 1 and 2.
  Task& own_task = make_task(any_);
  Task& far_task = make_task(any_);
  Task& near_task = make_task(any_);
  sched->push_ready(own_task);
  sched->push_ready(far_task);
  sched->push_ready(near_task);
  ctx_.set_locality(far_task.id(), 0, 0.0);
  ctx_.set_locality(near_task.id(), 0, 1.0);
  EXPECT_EQ(sched->pop(ctx_.workers()[0]), &own_task);   // local queue first
  EXPECT_EQ(sched->pop(ctx_.workers()[0]), &near_task);  // locality-rich steal
  EXPECT_EQ(sched->pop(ctx_.workers()[0]), &far_task);
  EXPECT_FALSE(sched->has_pending());
}

// -- eager ---------------------------------------------------------------------

TEST_F(SchedulerTest, EagerIsFifoForEligibleWorkers) {
  auto sched = make_scheduler("eager");
  sched->attach(ctx_);
  Task& t1 = make_task(any_);
  Task& t2 = make_task(any_);
  sched->push_ready(t1);
  sched->push_ready(t2);
  EXPECT_EQ(sched->pop(ctx_.workers()[0]), &t1);
  EXPECT_EQ(sched->pop(ctx_.workers()[1]), &t2);
  EXPECT_EQ(sched->pop(ctx_.workers()[2]), nullptr);
  EXPECT_FALSE(sched->has_pending());
}

TEST_F(SchedulerTest, EagerSkipsIneligibleTasks) {
  auto sched = make_scheduler("eager");
  sched->attach(ctx_);
  Task& gpu_task = make_task(cuda_only_);
  Task& cpu_task = make_task(any_);
  sched->push_ready(gpu_task);
  sched->push_ready(cpu_task);
  // CPU worker must skip the CUDA-only task and take the second one.
  EXPECT_EQ(sched->pop(ctx_.workers()[1]), &cpu_task);
  EXPECT_EQ(sched->pop(ctx_.workers()[0]), &gpu_task);
}

// -- random ---------------------------------------------------------------------

TEST_F(SchedulerTest, RandomOnlyPlacesOnEligibleWorkers) {
  auto sched = make_scheduler("random");
  sched->attach(ctx_);
  for (int i = 0; i < 32; ++i) {
    Task& t = make_task(cuda_only_);
    const WorkerId placed = sched->push_ready(t);
    EXPECT_EQ(placed, 0);  // only the CUDA worker is eligible
  }
  EXPECT_TRUE(sched->has_pending());
}

TEST_F(SchedulerTest, RandomFavoursFasterWorkers) {
  auto sched = make_scheduler("random");
  sched->attach(ctx_);
  int fast_count = 0;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    Task& t = make_task(any_);
    ctx_.set_exec(t.id(), 0, 0.01);  // CUDA worker 100x faster
    ctx_.set_exec(t.id(), 1, 1.0);
    ctx_.set_exec(t.id(), 2, 1.0);
    if (sched->push_ready(t) == 0) {
      ++fast_count;
    }
  }
  EXPECT_GT(fast_count, n * 0.9);
}

TEST_F(SchedulerTest, RandomThrowsWithNoEligibleWorker) {
  FakeContext gpu_only_ctx;
  gpu_only_ctx.workers().erase(gpu_only_ctx.workers().begin() + 1,
                               gpu_only_ctx.workers().end());
  auto sched = make_scheduler("random");
  sched->attach(gpu_only_ctx);
  Task& t = make_task(cpu_only_);
  EXPECT_THROW(sched->push_ready(t), std::runtime_error);
}

// -- work stealing ----------------------------------------------------------------

TEST_F(SchedulerTest, WsPlacesRoundRobinAndStealsFromLoaded) {
  auto sched = make_scheduler("ws");
  sched->attach(ctx_);
  std::vector<Task*> placed;
  for (int i = 0; i < 6; ++i) {
    Task& t = make_task(any_);
    sched->push_ready(t);
    placed.push_back(&t);
  }
  // Each worker got 2 tasks (round robin over 3 workers).
  EXPECT_EQ(ctx_.workers()[0].queue.size(), 2u);
  EXPECT_EQ(ctx_.workers()[1].queue.size(), 2u);
  EXPECT_EQ(ctx_.workers()[2].queue.size(), 2u);
  // Drain worker 0, then it steals.
  EXPECT_NE(sched->pop(ctx_.workers()[0]), nullptr);
  EXPECT_NE(sched->pop(ctx_.workers()[0]), nullptr);
  Task* stolen = sched->pop(ctx_.workers()[0]);
  ASSERT_NE(stolen, nullptr);
  EXPECT_EQ(ctx_.workers()[1].queue.size() + ctx_.workers()[2].queue.size(), 3u);
}

TEST_F(SchedulerTest, WsRespectsEligibilityWhenStealing) {
  auto sched = make_scheduler("ws");
  sched->attach(ctx_);
  Task& cpu_task = make_task(cpu_only_);
  sched->push_ready(cpu_task);  // round-robin would offer worker 0 (cuda) first
  EXPECT_TRUE(ctx_.workers()[1].queue.size() + ctx_.workers()[2].queue.size() == 1);
  EXPECT_EQ(sched->pop(ctx_.workers()[0]), nullptr);  // cuda worker cannot steal it
  Task* got = sched->pop(ctx_.workers()[1]);
  if (got == nullptr) {
    got = sched->pop(ctx_.workers()[2]);
  }
  EXPECT_EQ(got, &cpu_task);
}

// -- dm family ----------------------------------------------------------------------

TEST_F(SchedulerTest, DmPicksFastestWorker) {
  auto sched = make_scheduler("dm");
  sched->attach(ctx_);
  Task& t = make_task(any_);
  ctx_.set_exec(t.id(), 0, 0.1);
  ctx_.set_exec(t.id(), 1, 2.0);
  ctx_.set_exec(t.id(), 2, 2.0);
  EXPECT_EQ(sched->push_ready(t), 0);
  EXPECT_EQ(sched->pop(ctx_.workers()[0]), &t);
}

TEST_F(SchedulerTest, DmBalancesByExpectedCompletion) {
  auto sched = make_scheduler("dm");
  sched->attach(ctx_);
  // GPU is 3x faster, so of 4 tasks the GPU should get 3 and a CPU 1.
  int gpu_tasks = 0;
  for (int i = 0; i < 4; ++i) {
    Task& t = make_task(any_);
    ctx_.set_exec(t.id(), 0, 1.0);
    ctx_.set_exec(t.id(), 1, 3.0);
    ctx_.set_exec(t.id(), 2, 3.0);
    if (sched->push_ready(t) == 0) ++gpu_tasks;
  }
  EXPECT_EQ(gpu_tasks, 3);
}

TEST_F(SchedulerTest, DmIgnoresTransferCostButDmdaDoesNot) {
  Task& t = make_task(any_);
  ctx_.set_exec(t.id(), 0, 1.0);   // cuda: fast exec, huge transfer
  ctx_.set_xfer(t.id(), 0, 10.0);
  ctx_.set_exec(t.id(), 1, 1.5);   // cpu: slower exec, no transfer
  ctx_.set_exec(t.id(), 2, 1.5);

  auto dm = make_scheduler("dm");
  dm->attach(ctx_);
  EXPECT_EQ(dm->push_ready(t), 0);  // dm is blind to the transfer
  dm->pop(ctx_.workers()[0]);
  ctx_.workers()[0].expected_free = sim::SimTime::zero();

  auto dmda = make_scheduler("dmda");
  dmda->attach(ctx_);
  EXPECT_NE(dmda->push_ready(t), 0);  // dmda accounts for it
}

TEST_F(SchedulerTest, DmdaEstimatesTransferOncePerMemoryNode) {
  // Two more CPU workers: five workers on two memory nodes (host + GPU).
  ctx_.workers_.emplace_back(3, &ctx_.cpu_);
  ctx_.workers_.emplace_back(4, &ctx_.cpu_);
  for (const char* policy : {"dmda", "dmdas", "dmdae"}) {
    auto sched = make_scheduler(policy);
    sched->attach(ctx_);
    Task& t = make_task(any_);
    ctx_.set_xfer(t.id(), 0, 0.5);
    ctx_.transfer_calls = 0;
    sched->push_ready(t);
    EXPECT_EQ(ctx_.transfer_calls, 2) << policy;
  }
}

TEST_F(SchedulerTest, PlacingPushReadsOneRowAndEstimatesOnlyItsMisses) {
  for (const char* policy : {"dm", "dmda", "dmdas", "dmdae", "random"}) {
    auto sched = make_scheduler(policy);
    sched->attach(ctx_);
    EXPECT_TRUE(sched->places_on_push()) << policy;

    Task& any = make_task(any_);
    ctx_.set_exec(any.id(), 0, 0.5);  // the row misses worker 1 alone
    ctx_.set_exec(any.id(), 2, 2.0);
    ctx_.row_calls = 0;
    ctx_.exec_calls.clear();
    sched->push_ready(any);
    EXPECT_EQ(ctx_.row_calls, 1) << policy;
    EXPECT_EQ(ctx_.exec_calls, std::vector<WorkerId>{1}) << policy;

    // The row misses both CPU workers, but neither can run the task.
    Task& gpu = make_task(cuda_only_);
    ctx_.set_exec(gpu.id(), 0, 0.5);
    ctx_.row_calls = 0;
    ctx_.exec_calls.clear();
    sched->push_ready(gpu);
    EXPECT_EQ(ctx_.row_calls, 1) << policy;
    EXPECT_TRUE(ctx_.exec_calls.empty()) << policy;
  }
  for (const char* policy : {"eager", "prio", "ws", "lws"}) {
    EXPECT_FALSE(make_scheduler(policy)->places_on_push()) << policy;
  }
}

TEST_F(SchedulerTest, DmdaEqualFinishTimesPickLowestIndexWorker) {
  auto sched = make_scheduler("dmda");
  sched->attach(ctx_);
  Task& any = make_task(any_);
  for (WorkerId w = 0; w < 3; ++w) ctx_.set_exec(any.id(), w, 1.0);
  EXPECT_EQ(sched->push_ready(any), 0);

  Task& cpu = make_task(cpu_only_);
  EXPECT_EQ(sched->push_ready(cpu), 1);  // workers 1 and 2 both finish at 1.0

  // Worker 1 finishes at 1.0 + 2.0, worker 2 at 0 + 3.0: still a tie.
  Task& next = make_task(cpu_only_);
  ctx_.set_exec(next.id(), 1, 2.0);
  ctx_.set_exec(next.id(), 2, 3.0);
  EXPECT_EQ(sched->push_ready(next), 1);
}

TEST_F(SchedulerTest, DmdasPopsByPriority) {
  auto sched = make_scheduler("dmdas");
  sched->attach(ctx_);
  Task& low = make_task(cuda_only_, /*priority=*/1);
  Task& high = make_task(cuda_only_, /*priority=*/10);
  Task& mid = make_task(cuda_only_, /*priority=*/5);
  sched->push_ready(low);
  sched->push_ready(high);
  sched->push_ready(mid);
  EXPECT_EQ(sched->pop(ctx_.workers()[0]), &high);
  EXPECT_EQ(sched->pop(ctx_.workers()[0]), &mid);
  EXPECT_EQ(sched->pop(ctx_.workers()[0]), &low);
}

TEST_F(SchedulerTest, DmdasBreaksTiesByLocality) {
  auto sched = make_scheduler("dmdas");
  sched->attach(ctx_);
  Task& remote = make_task(cuda_only_, /*priority=*/5);
  Task& local = make_task(cuda_only_, /*priority=*/5);
  ctx_.set_locality(remote.id(), 0, 0.0);
  ctx_.set_locality(local.id(), 0, 1.0);
  sched->push_ready(remote);
  sched->push_ready(local);
  EXPECT_EQ(sched->pop(ctx_.workers()[0]), &local);
}

TEST_F(SchedulerTest, DmdaePrefersLowEnergyWithinSlack) {
  auto sched = make_scheduler("dmdae");
  sched->attach(ctx_);
  Task& t = make_task(any_);
  // CUDA worker finishes at 1.0 s but burns 100 J; CPU worker 1 finishes at
  // 1.2 s (within the 30 % slack) for 10 J -> dmdae must pick the CPU.
  ctx_.set_exec(t.id(), 0, 1.0);
  ctx_.set_energy(t.id(), 0, 100.0);
  ctx_.set_exec(t.id(), 1, 1.2);
  ctx_.set_energy(t.id(), 1, 10.0);
  ctx_.set_exec(t.id(), 2, 5.0);  // out of slack despite cheap energy
  ctx_.set_energy(t.id(), 2, 1.0);
  EXPECT_EQ(sched->push_ready(t), 1);
}

TEST_F(SchedulerTest, DmdaeFallsBackToFastestOutsideSlack) {
  auto sched = make_scheduler("dmdae");
  sched->attach(ctx_);
  Task& t = make_task(any_);
  ctx_.set_exec(t.id(), 0, 1.0);
  ctx_.set_energy(t.id(), 0, 100.0);
  ctx_.set_exec(t.id(), 1, 10.0);  // cheap but way beyond the slack
  ctx_.set_energy(t.id(), 1, 1.0);
  ctx_.set_exec(t.id(), 2, 10.0);
  ctx_.set_energy(t.id(), 2, 1.0);
  EXPECT_EQ(sched->push_ready(t), 0);
}

TEST_F(SchedulerTest, DmFamilyThrowsWithNoEligibleWorker) {
  FakeContext cpu_only_ctx;
  cpu_only_ctx.workers().erase(cpu_only_ctx.workers().begin());
  auto sched = make_scheduler("dmdas");
  sched->attach(cpu_only_ctx);
  Task& t = make_task(cuda_only_);
  EXPECT_THROW(sched->push_ready(t), std::runtime_error);
}

}  // namespace
}  // namespace greencap::rt
