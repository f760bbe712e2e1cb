#include "rt/calibration.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hw/presets.hpp"
#include "la/flops.hpp"

namespace greencap::rt {
namespace {

hw::KernelWork gemm_work(double nb) {
  return hw::KernelWork{hw::KernelClass::kGemm, hw::Precision::kDouble, la::flops::gemm(nb), nb};
}

class CalibrationTest : public ::testing::Test {
 protected:
  CalibrationTest() : platform_{hw::presets::platform_32_amd_4_a100()} {
    cl_.name = "dgemm";
    cl_.klass = hw::KernelClass::kGemm;
    cl_.where = kWhereAny;
  }

  hw::Platform platform_;
  sim::Simulator sim_;
  Codelet cl_;
};

TEST_F(CalibrationTest, PopulatesEveryWorkerAndSize) {
  Runtime rt{platform_, sim_, RuntimeOptions{}};
  Calibrator calibrator{rt};
  calibrator.calibrate(cl_, {gemm_work(2880), gemm_work(5760)});
  for (std::size_t w = 0; w < rt.worker_count(); ++w) {
    EXPECT_TRUE(rt.perf_model().calibrated("dgemm", rt.worker(w).id(), gemm_work(2880)));
    EXPECT_TRUE(rt.perf_model().calibrated("dgemm", rt.worker(w).id(), gemm_work(5760)));
  }
}

TEST_F(CalibrationTest, SkipsIneligibleWorkers) {
  Codelet cuda_only = cl_;
  cuda_only.where = kWhereCuda;
  Runtime rt{platform_, sim_, RuntimeOptions{}};
  Calibrator calibrator{rt};
  calibrator.calibrate(cuda_only, {gemm_work(2880)});
  for (std::size_t w = 0; w < rt.worker_count(); ++w) {
    const bool expect_calibrated = rt.worker(w).arch() == WorkerArch::kCuda;
    EXPECT_EQ(rt.perf_model().calibrated("dgemm", rt.worker(w).id(), gemm_work(2880)),
              expect_calibrated);
  }
}

TEST_F(CalibrationTest, ModelMatchesOracle) {
  Runtime rt{platform_, sim_, RuntimeOptions{}};
  Calibrator calibrator{rt};
  calibrator.calibrate(cl_, {gemm_work(5760)});
  const Worker& gpu_worker = rt.worker(0);
  const auto modelled = rt.perf_model().expected("dgemm", gpu_worker.id(), gemm_work(5760));
  ASSERT_TRUE(modelled.has_value());
  EXPECT_DOUBLE_EQ(modelled->sec(),
                   rt.oracle_exec_time(cl_, gemm_work(5760), gpu_worker).sec());
}

TEST_F(CalibrationTest, ReplayIntoAModelWithOtherIdsIsBitIdentical) {
  // The record holds each codelet name once; the replay interns them into
  // the target model, which here already knows them under other ids.
  Codelet trsm = cl_;
  trsm.name = "dtrsm";
  trsm.klass = hw::KernelClass::kTrsm;
  const std::vector<hw::KernelWork> works{gemm_work(2880), gemm_work(5760)};
  Runtime recorded{platform_, sim_, RuntimeOptions{}};
  CalibrationRecord record;
  Calibrator calibrator{recorded};
  calibrator.set_record_sink(&record);
  calibrator.calibrate(cl_, works);
  calibrator.calibrate(trsm, works);
  calibrator.calibrate(cl_, {gemm_work(1440)});
  EXPECT_EQ(record.codelets, (std::vector<std::string>{"dgemm", "dtrsm"}));
  ASSERT_FALSE(record.entries.empty());
  EXPECT_EQ(record.entries.back().codelet, 0u);

  sim::Simulator other_sim;
  Runtime target{platform_, other_sim, RuntimeOptions{}};
  HistoryPerfModel& model = target.perf_model();
  (void)model.intern("dpotrf");
  (void)model.intern("dtrsm");
  (void)model.intern("dgemm");
  ASSERT_NE(model.id_of("dgemm"), recorded.perf_model().id_of("dgemm"));
  replay_calibration(target, record);

  EXPECT_EQ(model.entry_count(), recorded.perf_model().entry_count());
  for (const char* name : {"dgemm", "dtrsm"}) {
    for (const double nb : {1440.0, 2880.0, 5760.0}) {
      for (std::size_t w = 0; w < target.worker_count(); ++w) {
        const WorkerId id = target.worker(w).id();
        const auto want = recorded.perf_model().expected(name, id, gemm_work(nb));
        const auto got = model.expected(name, id, gemm_work(nb));
        ASSERT_EQ(got.has_value(), want.has_value()) << name << " nb " << nb << " worker " << w;
        if (want) {
          EXPECT_EQ(got->sec(), want->sec()) << name << " nb " << nb << " worker " << w;
        }
      }
    }
  }
}

TEST_F(CalibrationTest, RecalibrationSeesNewPowerCaps) {
  Runtime rt{platform_, sim_, RuntimeOptions{}};
  Calibrator calibrator{rt};
  calibrator.calibrate(cl_, {gemm_work(5760)});
  const auto before = rt.perf_model().expected("dgemm", 0, gemm_work(5760));
  ASSERT_TRUE(before.has_value());

  // Cap GPU 0 and recalibrate — the paper's protocol after every change.
  platform_.gpu(0).set_power_cap(150.0, sim_.now());
  calibrator.recalibrate_all();
  const auto after = rt.perf_model().expected("dgemm", 0, gemm_work(5760));
  ASSERT_TRUE(after.has_value());
  EXPECT_GT(after->sec(), before->sec() * 1.3);

  // Uncapped GPUs keep their timing.
  const auto other = rt.perf_model().expected("dgemm", 1, gemm_work(5760));
  ASSERT_TRUE(other.has_value());
  EXPECT_DOUBLE_EQ(other->sec(), before->sec());
}

TEST_F(CalibrationTest, StaleModelWithoutRecalibration) {
  // The maladaptation scenario: cap changes but nobody recalibrates; the
  // model keeps predicting the old speed.
  Runtime rt{platform_, sim_, RuntimeOptions{}};
  Calibrator calibrator{rt};
  calibrator.calibrate(cl_, {gemm_work(5760)});
  const auto before = rt.perf_model().expected("dgemm", 0, gemm_work(5760));
  platform_.gpu(0).set_power_cap(150.0, sim_.now());
  const auto stale = rt.perf_model().expected("dgemm", 0, gemm_work(5760));
  EXPECT_DOUBLE_EQ(stale->sec(), before->sec());
}

TEST_F(CalibrationTest, RegisteredSetsAccumulate) {
  Runtime rt{platform_, sim_, RuntimeOptions{}};
  Calibrator calibrator{rt};
  calibrator.calibrate(cl_, {gemm_work(2880)});
  Codelet trsm = cl_;
  trsm.name = "dtrsm";
  trsm.klass = hw::KernelClass::kTrsm;
  calibrator.calibrate(trsm, {gemm_work(2880)});
  EXPECT_EQ(calibrator.registered_sets(), 2u);
}

}  // namespace
}  // namespace greencap::rt
