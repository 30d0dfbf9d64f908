/**
 * @file
 * SDDMM on the Canon fabric: output-side sparsity with A streamed
 * from the north edge, prefetch-window buffering, and east-edge lane
 * reduction -- checked exactly against the reference for unstructured
 * and sliding-window masks.
 */

#include <gtest/gtest.h>

#include "core/fabric.hh"
#include "kernels/sddmm.hh"
#include "sparse/generate.hh"
#include "sparse/reference.hh"

namespace canon
{
namespace
{

CanonConfig
sddmmConfig(int rows = 4, int cols = 4, int spad = 4)
{
    CanonConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.spadEntries = spad;
    return cfg;
}

WordMatrix
runSddmm(const CsrMatrix &mask, const DenseMatrix &a,
         const DenseMatrix &b, const CanonConfig &cfg)
{
    CanonFabric fabric(cfg);
    fabric.load(mapSddmm(mask, a, b, cfg));
    fabric.run();
    return fabric.result();
}

TEST(CanonSddmm, SingleElementMask)
{
    const auto cfg = sddmmConfig();
    Rng rng(1);
    const auto a = randomDense(4, 16, rng);
    const auto b = randomDense(16, 8, rng);
    CsrMatrix mask(4, 8);
    mask.append(2, 5, 1);

    EXPECT_EQ(runSddmm(mask, a, b, cfg), reference::sddmm(mask, a, b));
}

TEST(CanonSddmm, FullMaskEqualsGemm)
{
    const auto cfg = sddmmConfig();
    Rng rng(2);
    const auto a = randomDense(8, 16, rng);
    const auto b = randomDense(16, 8, rng);
    const auto mask = randomMask(8, 8, 0.0, rng); // fully dense mask

    const auto c = runSddmm(mask, a, b, cfg);
    EXPECT_EQ(c, reference::gemm(a, b));
}

TEST(CanonSddmm, EmptyMask)
{
    const auto cfg = sddmmConfig();
    Rng rng(3);
    const auto a = randomDense(6, 16, rng);
    const auto b = randomDense(16, 8, rng);
    const CsrMatrix mask(6, 8);

    EXPECT_EQ(runSddmm(mask, a, b, cfg), WordMatrix(6, 8));
}

struct SddmmParam
{
    double mask_sparsity;
    int spad;
    int m;
    std::uint64_t seed;
};
// The test ID names this param by its raw bytes (it has no printer),
// so the struct must have no padding: padding bytes are indeterminate
// and would change the ID from build to build.
static_assert(sizeof(SddmmParam) ==
              sizeof(double) + 2 * sizeof(int) + sizeof(std::uint64_t));

class SddmmSweep : public ::testing::TestWithParam<SddmmParam>
{
};

TEST_P(SddmmSweep, MatchesReference)
{
    const auto p = GetParam();
    const auto cfg = sddmmConfig(4, 4, p.spad);
    Rng rng(p.seed);
    const auto a = randomDense(p.m, 16, rng);
    const auto b = randomDense(16, 16, rng);
    const auto mask = randomMask(p.m, 16, p.mask_sparsity, rng);

    EXPECT_EQ(runSddmm(mask, a, b, cfg), reference::sddmm(mask, a, b))
        << "mask sparsity " << p.mask_sparsity << " spad " << p.spad;
}

INSTANTIATE_TEST_SUITE_P(
    MaskSparsity, SddmmSweep,
    ::testing::Values(SddmmParam{0.1, 4, 16, 50},
                      SddmmParam{0.3, 4, 16, 51},
                      SddmmParam{0.5, 4, 24, 52},
                      SddmmParam{0.7, 4, 24, 53},
                      SddmmParam{0.9, 4, 32, 54},
                      SddmmParam{0.95, 4, 48, 55}));

INSTANTIATE_TEST_SUITE_P(
    PrefetchWindows, SddmmSweep,
    ::testing::Values(SddmmParam{0.6, 1, 24, 60},
                      SddmmParam{0.6, 2, 24, 61},
                      SddmmParam{0.6, 8, 24, 62},
                      SddmmParam{0.6, 16, 24, 63},
                      SddmmParam{0.6, 32, 24, 64}));

TEST(CanonSddmm, SlidingWindowMask)
{
    const auto cfg = sddmmConfig();
    Rng rng(70);
    const int seq = 32;
    const auto a = randomDense(seq, 16, rng);
    const auto b = randomDense(16, seq, rng);
    const auto mask = slidingWindowMask(seq, seq, 8);

    EXPECT_EQ(runSddmm(mask, a, b, cfg), reference::sddmm(mask, a, b));
}

TEST(CanonSddmm, PaperConfig)
{
    const auto cfg = CanonConfig::paper();
    Rng rng(71);
    const int m = 40, k = 32, n = 32;
    const auto a = randomDense(m, k, rng);
    const auto b = randomDense(k, n, rng);
    const auto mask = randomMask(m, n, 0.7, rng);

    EXPECT_EQ(runSddmm(mask, a, b, cfg), reference::sddmm(mask, a, b));
}

TEST(CanonSddmm, DeeperWindowNoSlower)
{
    // The prefetch window absorbs inter-row imbalance: a deeper
    // scratchpad should never increase cycles on a skewed mask.
    Rng rng(72);
    const int m = 64;
    const auto a = randomDense(m, 16, rng);
    const auto b = randomDense(16, 16, rng);
    // Heavily skewed mask: one row block owns most of the work.
    CsrMatrix mask(m, 16);
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < 16; ++j) {
            const bool heavy = j < 4; // block of PE row 0
            if (heavy || rng.nextBool(0.1))
                mask.append(i, j, 1);
        }
    }

    auto cycles_at = [&](int spad) {
        const auto cfg = sddmmConfig(4, 4, spad);
        CanonFabric fabric(cfg);
        fabric.load(mapSddmm(mask, a, b, cfg));
        return fabric.run();
    };

    EXPECT_LE(cycles_at(16), cycles_at(1));
}

} // namespace
} // namespace canon
