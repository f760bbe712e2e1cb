#include "rt/runtime.hpp"

#include <gtest/gtest.h>

#include "hw/presets.hpp"
#include "la/flops.hpp"

namespace greencap::rt {
namespace {

hw::KernelWork gemm_work(double nb, hw::Precision p = hw::Precision::kDouble) {
  return hw::KernelWork{hw::KernelClass::kGemm, p, la::flops::gemm(nb), nb};
}

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() : platform_{hw::presets::platform_32_amd_4_a100()} {
    noop_.name = "noop";
    noop_.klass = hw::KernelClass::kGemm;
    noop_.where = kWhereAny;
    cuda_only_.name = "cuda_noop";
    cuda_only_.klass = hw::KernelClass::kGemm;
    cuda_only_.where = kWhereCuda;
  }

  Runtime make_runtime(RuntimeOptions opts = {}) { return Runtime{platform_, sim_, opts}; }

  hw::Platform platform_;
  sim::Simulator sim_;
  Codelet noop_;
  Codelet cuda_only_;
};

TEST_F(RuntimeTest, WorkerTopologyMatchesStarPuConvention) {
  Runtime rt = make_runtime();
  // 4 CUDA workers + (32 cores - 4 driver cores) CPU workers.
  EXPECT_EQ(rt.worker_count(), 4u + 28u);
  int cuda = 0, cpu = 0;
  for (std::size_t i = 0; i < rt.worker_count(); ++i) {
    (rt.worker(i).arch() == WorkerArch::kCuda ? cuda : cpu)++;
  }
  EXPECT_EQ(cuda, 4);
  EXPECT_EQ(cpu, 28);
}

TEST_F(RuntimeTest, NoDedicatedCoresOptionKeepsAllCores) {
  RuntimeOptions opts;
  opts.dedicate_core_per_gpu = false;
  Runtime rt = make_runtime(opts);
  EXPECT_EQ(rt.worker_count(), 4u + 32u);
}

TEST_F(RuntimeTest, SubmitValidatesCodelet) {
  Runtime rt = make_runtime();
  TaskDesc desc;
  EXPECT_THROW(rt.submit(std::move(desc)), std::invalid_argument);
  Codelet nowhere;
  nowhere.name = "nowhere";
  nowhere.where = WhereMask{false, false};
  TaskDesc desc2;
  desc2.codelet = &nowhere;
  EXPECT_THROW(rt.submit(std::move(desc2)), std::invalid_argument);
}

TEST_F(RuntimeTest, SingleTaskRunsAndAdvancesClock) {
  Runtime rt = make_runtime();
  TaskDesc desc;
  desc.codelet = &cuda_only_;
  desc.work = gemm_work(5760);
  rt.submit(std::move(desc));
  rt.wait_all();
  const RuntimeStats stats = rt.stats();
  EXPECT_EQ(stats.tasks_completed, 1u);
  // 2 * 5760^3 flops at ~18 Tflop/s is ~20 ms.
  EXPECT_GT(stats.makespan.sec(), 0.005);
  EXPECT_LT(stats.makespan.sec(), 0.1);
}

TEST_F(RuntimeTest, IndependentTasksRunConcurrently) {
  Runtime rt = make_runtime();
  for (int i = 0; i < 4; ++i) {
    TaskDesc desc;
    desc.codelet = &cuda_only_;
    desc.work = gemm_work(5760);
    rt.submit(std::move(desc));
  }
  rt.wait_all();
  const RuntimeStats stats = rt.stats();
  // 4 equal tasks on 4 GPUs: makespan ~ one task, definitely below 2x.
  Runtime single_probe = Runtime{platform_, sim_, RuntimeOptions{}};
  const sim::SimTime one =
      single_probe.oracle_exec_time(cuda_only_, gemm_work(5760), single_probe.worker(0));
  EXPECT_LT(stats.makespan.sec(), 1.8 * one.sec());
}

TEST_F(RuntimeTest, DependentTasksSerialize) {
  Runtime rt = make_runtime();
  DataHandle* h = rt.register_data(1024);
  for (int i = 0; i < 3; ++i) {
    TaskDesc desc;
    desc.codelet = &cuda_only_;
    desc.work = gemm_work(5760);
    desc.accesses.push_back({h, AccessMode::kReadWrite});
    rt.submit(std::move(desc));
  }
  rt.wait_all();
  Runtime probe = Runtime{platform_, sim_, RuntimeOptions{}};
  const sim::SimTime one = probe.oracle_exec_time(cuda_only_, gemm_work(5760), probe.worker(0));
  EXPECT_GT(rt.stats().makespan.sec(), 2.9 * one.sec());
}

TEST_F(RuntimeTest, EnergyAccruedDuringRun) {
  Runtime rt = make_runtime();
  TaskDesc desc;
  desc.codelet = &cuda_only_;
  desc.work = gemm_work(5760);
  rt.submit(std::move(desc));
  rt.wait_all();
  const hw::EnergyReading energy = platform_.read_energy(sim_.now());
  EXPECT_GT(energy.gpu_total(), 0.0);
  EXPECT_GT(energy.cpu_total(), 0.0);  // uncore power while idle
}

TEST_F(RuntimeTest, TransfersDelayRemoteData) {
  RuntimeOptions opts;
  opts.enable_trace = true;
  Runtime rt = make_runtime(opts);
  // A large handle that must move host -> GPU before execution.
  DataHandle* h = rt.register_data(512ull * 1024 * 1024);
  TaskDesc desc;
  desc.codelet = &cuda_only_;
  desc.work = gemm_work(5760);
  desc.accesses.push_back({h, AccessMode::kRead});
  rt.submit(std::move(desc));
  rt.wait_all();
  // 512 MB at 24 GB/s is ~21 ms of transfer before the ~21 ms kernel.
  Runtime probe = Runtime{platform_, sim_, RuntimeOptions{}};
  const sim::SimTime exec = probe.oracle_exec_time(cuda_only_, gemm_work(5760), probe.worker(0));
  EXPECT_GT(rt.stats().makespan.sec(), exec.sec() + 0.015);
  EXPECT_GT(rt.stats().total_bytes_transferred, 500'000'000u);
  bool saw_transfer_span = false;
  for (const auto& span : rt.trace().spans()) {
    saw_transfer_span |= span.kind == sim::SpanKind::kTransfer;
  }
  EXPECT_TRUE(saw_transfer_span);
}

TEST_F(RuntimeTest, SecondReadOnSameNodeNeedsNoTransfer) {
  Runtime rt = make_runtime();
  DataHandle* h = rt.register_data(512ull * 1024 * 1024);
  for (int i = 0; i < 2; ++i) {
    TaskDesc desc;
    desc.codelet = &cuda_only_;
    desc.work = gemm_work(5760);
    desc.accesses.push_back({h, AccessMode::kRead});
    rt.submit(std::move(desc));
  }
  rt.wait_all();
  // Both tasks may run on different GPUs; bytes moved should stay well
  // under 3 copies (the data-aware scheduler prefers the resident GPU).
  EXPECT_LE(rt.stats().total_bytes_transferred, 2ull * 512 * 1024 * 1024);
}

TEST_F(RuntimeTest, WriteInvalidatesOtherCopies) {
  Runtime rt = make_runtime();
  DataHandle* h = rt.register_data(1024);
  TaskDesc producer;
  producer.codelet = &cuda_only_;
  producer.work = gemm_work(5760);
  producer.accesses.push_back({h, AccessMode::kWrite});
  rt.submit(std::move(producer));
  rt.wait_all();
  EXPECT_FALSE(h->valid_on(kHostNode));
  EXPECT_EQ(h->copy_count(), 1u);
}

TEST_F(RuntimeTest, CpuReadOfGpuDataTriggersD2H) {
  Codelet cpu_only;
  cpu_only.name = "cpu_reader";
  cpu_only.klass = hw::KernelClass::kGemm;
  cpu_only.where = kWhereCpu;

  Runtime rt = make_runtime();
  DataHandle* h = rt.register_data(64ull * 1024 * 1024);
  TaskDesc producer;
  producer.codelet = &cuda_only_;
  producer.work = gemm_work(5760);
  producer.accesses.push_back({h, AccessMode::kWrite});
  rt.submit(std::move(producer));

  TaskDesc consumer;
  consumer.codelet = &cpu_only;
  consumer.work = gemm_work(256);
  consumer.accesses.push_back({h, AccessMode::kRead});
  rt.submit(std::move(consumer));
  rt.wait_all();
  EXPECT_TRUE(h->valid_on(kHostNode));
  EXPECT_GE(rt.stats().total_bytes_transferred, 64ull * 1024 * 1024);
}

TEST_F(RuntimeTest, ExecuteKernelsRunsHostFunction) {
  RuntimeOptions opts;
  opts.execute_kernels = true;
  Runtime rt = make_runtime(opts);
  int counter = 0;
  Codelet bump;
  bump.name = "bump";
  bump.where = kWhereAny;
  bump.cpu_func = [&counter](Task&) { ++counter; };
  for (int i = 0; i < 5; ++i) {
    TaskDesc desc;
    desc.codelet = &bump;
    desc.work = gemm_work(128);
    rt.submit(std::move(desc));
  }
  rt.wait_all();
  EXPECT_EQ(counter, 5);
}

TEST_F(RuntimeTest, KernelsNotRunByDefault) {
  Runtime rt = make_runtime();
  int counter = 0;
  Codelet bump;
  bump.name = "bump";
  bump.where = kWhereAny;
  bump.cpu_func = [&counter](Task&) { ++counter; };
  TaskDesc desc;
  desc.codelet = &bump;
  desc.work = gemm_work(128);
  rt.submit(std::move(desc));
  rt.wait_all();
  EXPECT_EQ(counter, 0);
}

TEST_F(RuntimeTest, TraceSpansAreDisjointPerWorker) {
  RuntimeOptions opts;
  opts.enable_trace = true;
  Runtime rt = make_runtime(opts);
  DataHandle* h = rt.register_data(1024);
  for (int i = 0; i < 40; ++i) {
    TaskDesc desc;
    desc.codelet = &noop_;
    desc.work = gemm_work(2880);
    if (i % 3 == 0) {
      desc.accesses.push_back({h, AccessMode::kReadWrite});
    }
    rt.submit(std::move(desc));
  }
  rt.wait_all();
  EXPECT_TRUE(rt.trace().resource_spans_disjoint());
}

TEST_F(RuntimeTest, TraceStaysConsistentUnderPrefetch) {
  RuntimeOptions opts;
  opts.enable_trace = true;
  opts.prefetch = true;
  Runtime rt = make_runtime(opts);
  // Several large read-only handles so prefetch has transfers to overlap
  // with execution, plus a serializing handle to mix in dependencies.
  std::vector<DataHandle*> inputs;
  for (int i = 0; i < 6; ++i) {
    inputs.push_back(rt.register_data(64ull * 1024 * 1024));
  }
  DataHandle* chain = rt.register_data(1024);
  for (int i = 0; i < 30; ++i) {
    TaskDesc desc;
    desc.codelet = &cuda_only_;
    desc.work = gemm_work(2880);
    desc.accesses.push_back({inputs[static_cast<std::size_t>(i) % inputs.size()], AccessMode::kRead});
    if (i % 5 == 0) {
      desc.accesses.push_back({chain, AccessMode::kReadWrite});
    }
    rt.submit(std::move(desc));
  }
  rt.wait_all();

  const sim::Trace& trace = rt.trace();
  // Prefetch overlaps transfers with execution but must never overlap two
  // task spans on one worker.
  EXPECT_TRUE(trace.resource_spans_disjoint());

  std::uint64_t task_spans = 0;
  bool saw_transfer = false;
  for (const sim::Span& span : trace.spans()) {
    EXPECT_LE(span.begin, span.end);
    if (span.kind == sim::SpanKind::kTask) {
      ++task_spans;
    } else if (span.kind == sim::SpanKind::kTransfer) {
      saw_transfer = true;
      // Transfer rows use the link-resource id space, disjoint from
      // worker ids.
      EXPECT_GE(span.resource, 1000);
    }
  }
  EXPECT_EQ(task_spans, 30u);
  EXPECT_TRUE(saw_transfer);
  EXPECT_EQ(rt.stats().tasks_completed, 30u);
}

TEST_F(RuntimeTest, StatsCountWorkPerWorker) {
  Runtime rt = make_runtime();
  for (int i = 0; i < 12; ++i) {
    TaskDesc desc;
    desc.codelet = &cuda_only_;
    desc.work = gemm_work(5760);
    rt.submit(std::move(desc));
  }
  rt.wait_all();
  const RuntimeStats stats = rt.stats();
  std::uint64_t total = 0;
  for (const auto& w : stats.per_worker) {
    total += w.tasks;
    if (w.arch == WorkerArch::kCpuCore) {
      EXPECT_EQ(w.tasks, 0u);
    }
  }
  EXPECT_EQ(total, 12u);
  EXPECT_EQ(stats.tasks_submitted, 12u);
}

TEST_F(RuntimeTest, DeterministicAcrossRuns) {
  auto run_once = [this]() {
    hw::Platform platform{hw::presets::platform_32_amd_4_a100()};
    sim::Simulator sim;
    Runtime rt{platform, sim, RuntimeOptions{}};
    DataHandle* h = rt.register_data(1024);
    for (int i = 0; i < 30; ++i) {
      TaskDesc desc;
      desc.codelet = &noop_;
      desc.work = gemm_work(2880);
      if (i % 4 == 0) desc.accesses.push_back({h, AccessMode::kReadWrite});
      rt.submit(std::move(desc));
    }
    rt.wait_all();
    return rt.stats().makespan.sec();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST_F(RuntimeTest, NoiseIsSeededAndReproducible) {
  auto run_once = [this](std::uint64_t seed) {
    hw::Platform platform{hw::presets::platform_32_amd_4_a100()};
    sim::Simulator sim;
    RuntimeOptions opts;
    opts.exec_noise_rel = 0.05;
    opts.seed = seed;
    Runtime rt{platform, sim, opts};
    for (int i = 0; i < 10; ++i) {
      TaskDesc desc;
      desc.codelet = &cuda_only_;
      desc.work = gemm_work(5760);
      rt.submit(std::move(desc));
    }
    rt.wait_all();
    return rt.stats().makespan.sec();
  };
  EXPECT_DOUBLE_EQ(run_once(1), run_once(1));
  EXPECT_NE(run_once(1), run_once(2));
}

TEST_F(RuntimeTest, EverySchedulerCompletesTheDag) {
  for (const char* sched : {"eager", "prio", "random", "ws", "lws", "dm", "dmda", "dmdas", "dmdae"}) {
    hw::Platform platform{hw::presets::platform_32_amd_4_a100()};
    sim::Simulator sim;
    RuntimeOptions opts;
    opts.scheduler = sched;
    Runtime rt{platform, sim, opts};
    DataHandle* a = rt.register_data(1024);
    DataHandle* b = rt.register_data(1024);
    for (int i = 0; i < 25; ++i) {
      TaskDesc desc;
      desc.codelet = &noop_;
      desc.work = gemm_work(2880);
      desc.accesses.push_back({i % 2 ? a : b, AccessMode::kReadWrite});
      desc.priority = i;
      rt.submit(std::move(desc));
    }
    EXPECT_NO_THROW(rt.wait_all()) << sched;
    EXPECT_EQ(rt.stats().tasks_completed, 25u) << sched;
  }
}

}  // namespace
}  // namespace greencap::rt
