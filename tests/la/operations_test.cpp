// End-to-end numerical validation: tiled operations executed through the
// full runtime (scheduler + simulated devices + real kernels) must match
// dense references bit-for-bit in structure and to rounding in value.
#include "la/operations.hpp"

#include <gtest/gtest.h>

#include "hw/presets.hpp"
#include "la/verify.hpp"

namespace greencap::la {
namespace {

struct RtBundle {
  hw::Platform platform{hw::presets::platform_24_intel_2_v100()};
  sim::Simulator sim;
  rt::Runtime runtime;

  explicit RtBundle(const std::string& scheduler = "dmdas") : runtime{platform, sim, [&] {
    rt::RuntimeOptions opts;
    opts.scheduler = scheduler;
    opts.execute_kernels = true;
    return opts;
  }()} {}
};

// -- DAG shape (paper section III-C closed forms) -----------------------------

class PotrfShape : public ::testing::TestWithParam<int> {};

TEST_P(PotrfShape, TaskCountMatchesClosedForm) {
  const int nt = GetParam();
  RtBundle b;
  Codelets<double> cl;
  TileMatrix<double> a{static_cast<std::int64_t>(nt) * 8, 8, /*allocate=*/false};
  a.register_with(b.runtime);
  submit_potrf<double>(b.runtime, cl, a);
  EXPECT_NO_THROW(b.runtime.wait_all());
  const auto stats = b.runtime.stats();
  EXPECT_EQ(stats.tasks_submitted, static_cast<std::uint64_t>(potrf_task_count(nt)));
  EXPECT_EQ(stats.tasks_completed, stats.tasks_submitted);
}

INSTANTIATE_TEST_SUITE_P(TileCounts, PotrfShape, ::testing::Values(1, 2, 3, 4, 6, 8, 12));

TEST(PotrfShapeCounts, ClosedFormsMatchPaperFormulas) {
  // Paper: N(N+1)(N+2)/6 vertices, 2N(N-1)(N-2)/6 ... gemm count variants.
  EXPECT_EQ(potrf_task_count(1), 1);
  EXPECT_EQ(potrf_task_count(4), 20);
  EXPECT_EQ(potrf_task_count(60), 37820);
  EXPECT_EQ(potrf_gemm_task_count(4), 4);
  EXPECT_EQ(potrf_gemm_task_count(60), 34220);
}

class GemmShape : public ::testing::TestWithParam<int> {};

TEST_P(GemmShape, TaskCountIsNtCubed) {
  const int nt = GetParam();
  RtBundle b;
  Codelets<double> cl;
  const std::int64_t n = static_cast<std::int64_t>(nt) * 8;
  TileMatrix<double> a{n, 8, false}, bm{n, 8, false}, c{n, 8, false};
  a.register_with(b.runtime);
  bm.register_with(b.runtime);
  c.register_with(b.runtime);
  submit_gemm<double>(b.runtime, cl, a, bm, c);
  b.runtime.wait_all();
  EXPECT_EQ(b.runtime.stats().tasks_submitted,
            static_cast<std::uint64_t>(nt) * nt * nt);
}

INSTANTIATE_TEST_SUITE_P(TileCounts, GemmShape, ::testing::Values(1, 2, 3, 5));

TEST(GemmShape, RejectsNonConformingTilings) {
  RtBundle b;
  Codelets<double> cl;
  TileMatrix<double> a{16, 8, false}, bm{16, 8, false}, c{24, 8, false};
  a.register_with(b.runtime);
  bm.register_with(b.runtime);
  c.register_with(b.runtime);
  EXPECT_THROW(submit_gemm<double>(b.runtime, cl, a, bm, c), std::invalid_argument);
}

// -- numerics ----------------------------------------------------------------

template <typename T>
class OperationNumerics : public ::testing::Test {};

using Scalars = ::testing::Types<float, double>;
TYPED_TEST_SUITE(OperationNumerics, Scalars);

TYPED_TEST(OperationNumerics, TiledGemmMatchesDenseReference) {
  using T = TypeParam;
  RtBundle bundle;
  Codelets<T> cl;
  const std::int64_t n = 48;
  const int nb = 16;
  TileMatrix<T> a{n, nb}, b{n, nb}, c{n, nb};
  sim::Xoshiro256 rng{7};
  a.fill_random(rng);
  b.fill_random(rng);
  c.fill_random(rng);
  a.register_with(bundle.runtime);
  b.register_with(bundle.runtime);
  c.register_with(bundle.runtime);

  auto expected = c.to_dense();
  reference_gemm<T>(n, T{1}, a.to_dense(), b.to_dense(), T{0}, expected);

  submit_gemm<T>(bundle.runtime, cl, a, b, c, T{1}, T{0});
  bundle.runtime.wait_all();

  const double tol = std::is_same_v<T, float> ? 1e-3 : 1e-10;
  EXPECT_LT(max_rel_error<T>(c.to_dense(), expected), tol);
}

TYPED_TEST(OperationNumerics, TiledCholeskyMatchesDenseReference) {
  using T = TypeParam;
  RtBundle bundle;
  Codelets<T> cl;
  const std::int64_t n = 64;
  const int nb = 16;
  TileMatrix<T> a{n, nb};
  sim::Xoshiro256 rng{11};
  a.make_spd(rng);
  a.register_with(bundle.runtime);

  auto expected = a.to_dense();
  reference_potrf<T>(n, expected);

  submit_potrf<T>(bundle.runtime, cl, a);
  bundle.runtime.wait_all();

  const double tol = std::is_same_v<T, float> ? 1e-3 : 1e-10;
  EXPECT_LT(max_rel_error_lower<T>(n, a.to_dense(), expected), tol);
}

TYPED_TEST(OperationNumerics, TransposedGemmVariants) {
  using T = TypeParam;
  const std::int64_t n = 24;
  const int nb = 8;
  for (const auto& [op_a, op_b] :
       {std::pair{Trans::kTrans, Trans::kNoTrans}, std::pair{Trans::kNoTrans, Trans::kTrans},
        std::pair{Trans::kTrans, Trans::kTrans}}) {
    RtBundle bundle;
    Codelets<T> cl;
    TileMatrix<T> a{n, nb}, b{n, nb}, c{n, nb};
    sim::Xoshiro256 rng{19};
    a.fill_random(rng);
    b.fill_random(rng);
    a.register_with(bundle.runtime);
    b.register_with(bundle.runtime);
    c.register_with(bundle.runtime);

    // Dense reference with explicit transposes.
    const auto ad = a.to_dense();
    const auto bd = b.to_dense();
    std::vector<T> want(static_cast<std::size_t>(n) * n, T{0});
    for (std::int64_t j = 0; j < n; ++j) {
      for (std::int64_t i = 0; i < n; ++i) {
        T acc{};
        for (std::int64_t k = 0; k < n; ++k) {
          const T av = op_a == Trans::kTrans ? ad[k + static_cast<std::size_t>(i) * n]
                                             : ad[i + static_cast<std::size_t>(k) * n];
          const T bv = op_b == Trans::kTrans ? bd[j + static_cast<std::size_t>(k) * n]
                                             : bd[k + static_cast<std::size_t>(j) * n];
          acc += av * bv;
        }
        want[i + static_cast<std::size_t>(j) * n] = acc;
      }
    }

    submit_gemm<T>(bundle.runtime, cl, a, b, c, T{1}, T{0}, op_a, op_b);
    bundle.runtime.wait_all();
    const double tol = std::is_same_v<T, float> ? 1e-3 : 1e-10;
    EXPECT_LT(max_rel_error<T>(c.to_dense(), want), tol)
        << "op_a=" << (op_a == Trans::kTrans) << " op_b=" << (op_b == Trans::kTrans);
  }
}

// The factorization must be correct under every scheduling policy — tasks
// may land anywhere, in any interleaving, and the result must not change.
class SchedulerNumerics : public ::testing::TestWithParam<const char*> {};

TEST_P(SchedulerNumerics, CholeskyCorrectUnderPolicy) {
  RtBundle bundle{GetParam()};
  Codelets<double> cl;
  const std::int64_t n = 48;
  TileMatrix<double> a{n, 12};
  sim::Xoshiro256 rng{13};
  a.make_spd(rng);
  a.register_with(bundle.runtime);

  auto expected = a.to_dense();
  reference_potrf<double>(n, expected);

  submit_potrf<double>(bundle.runtime, cl, a);
  bundle.runtime.wait_all();
  EXPECT_LT(max_rel_error_lower<double>(n, a.to_dense(), expected), 1e-10);
}

TEST_P(SchedulerNumerics, GemmCorrectUnderPolicy) {
  RtBundle bundle{GetParam()};
  Codelets<double> cl;
  const std::int64_t n = 32;
  TileMatrix<double> a{n, 8}, b{n, 8}, c{n, 8};
  sim::Xoshiro256 rng{17};
  a.fill_random(rng);
  b.fill_random(rng);
  c.fill_random(rng);
  a.register_with(bundle.runtime);
  b.register_with(bundle.runtime);
  c.register_with(bundle.runtime);

  auto expected = c.to_dense();
  reference_gemm<double>(n, 2.0, a.to_dense(), b.to_dense(), 0.5, expected);

  submit_gemm<double>(bundle.runtime, cl, a, b, c, 2.0, 0.5);
  bundle.runtime.wait_all();
  EXPECT_LT(max_rel_error<double>(c.to_dense(), expected), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SchedulerNumerics,
                         ::testing::Values("eager", "prio", "random", "ws", "lws", "dm", "dmda", "dmdas", "dmdae"));

// -- priorities ----------------------------------------------------------------

TEST(Priorities, PanelOutranksUpdatesWithinStep) {
  RtBundle b;
  Codelets<double> cl;
  TileMatrix<double> a{40, 8, false};
  a.register_with(b.runtime);
  submit_potrf<double>(b.runtime, cl, a);
  b.runtime.wait_all();
  // Reconstructed from the builder's formula: potrf(k) > trsm(m,k) >
  // syrk/gemm(.,k) > potrf(k+1).
  const auto base = [](int nt, int k) { return static_cast<std::int64_t>(nt - k) * 4096; };
  EXPECT_GT(base(5, 0) + 3 * 1024, base(5, 0) + 2 * 1024);
  EXPECT_GT(base(5, 0) + 1024 - 4, base(5, 1) + 3 * 1024 - 4096);
}

TEST(Flops, KnownCounts) {
  EXPECT_DOUBLE_EQ(flops::gemm(10, 20, 30), 12000.0);
  EXPECT_DOUBLE_EQ(flops::gemm(100), 2e6);
  EXPECT_DOUBLE_EQ(flops::trsm(8, 4), 128.0);
  EXPECT_DOUBLE_EQ(flops::syrk(4, 8), 160.0);
  EXPECT_NEAR(flops::potrf(100), 1e6 / 3 + 5000 + 100.0 / 6, 1e-9);
}

}  // namespace
}  // namespace greencap::la
