/**
 * @file
 * Unit tests for the board power composition (Equation 4).
 */

#include <gtest/gtest.h>

#include "harmonia/common/error.hh"
#include "harmonia/power/board_power.hh"

using namespace harmonia;

TEST(BoardPower, Equation4Composition)
{
    const BoardPowerModel board;
    GpuPowerBreakdown gpu;
    gpu.cuDynamic = 80.0;
    gpu.uncoreDynamic = 15.0;
    gpu.leakage = 25.0;
    MemPowerBreakdown mem;
    mem.background = 10.0;
    mem.phy = 10.0;
    mem.readWrite = 10.0;

    const CardPowerBreakdown card = board.compose(gpu, mem);
    EXPECT_DOUBLE_EQ(card.gpuTotal(), 120.0);
    EXPECT_DOUBLE_EQ(card.memTotal(), 30.0);
    // OtherPwr = fan + misc + VR loss fraction of (GPU + Mem).
    const double expectedOther =
        board.params().fanWatts + board.params().miscWatts +
        board.params().vrLossFraction * 150.0;
    EXPECT_DOUBLE_EQ(card.other, expectedOther);
    EXPECT_DOUBLE_EQ(card.total(), 150.0 + expectedOther);
}

TEST(BoardPower, OtherScalesWithLoad)
{
    const BoardPowerModel board;
    GpuPowerBreakdown light;
    light.cuDynamic = 10.0;
    GpuPowerBreakdown heavy;
    heavy.cuDynamic = 150.0;
    const MemPowerBreakdown mem;
    EXPECT_GT(board.compose(heavy, mem).other,
              board.compose(light, mem).other);
}

TEST(BoardPower, Validation)
{
    BoardPowerParams p;
    p.vrLossFraction = 1.0;
    EXPECT_THROW(BoardPowerModel{p}, ConfigError);
    p = BoardPowerParams{};
    p.fanWatts = -1.0;
    EXPECT_THROW(BoardPowerModel{p}, ConfigError);
}
