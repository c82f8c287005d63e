/**
 * @file
 * Unit tests for kernel phase/profile descriptions.
 */

#include <gtest/gtest.h>

#include "harmonia/common/error.hh"
#include "harmonia/timing/kernel_profile.hh"

using namespace harmonia;

TEST(KernelPhase, DefaultsValidate)
{
    EXPECT_NO_THROW(KernelPhase{}.validate());
}

TEST(KernelPhase, ValidationCatchesEachField)
{
    KernelPhase p;
    p.workItems = 0.0;
    EXPECT_THROW(p.validate(), ConfigError);

    p = KernelPhase{};
    p.aluInstsPerItem = -1.0;
    EXPECT_THROW(p.validate(), ConfigError);

    p = KernelPhase{};
    p.aluInstsPerItem = 0.0;
    p.fetchInstsPerItem = 0.0;
    p.writeInstsPerItem = 0.0;
    EXPECT_THROW(p.validate(), ConfigError);

    p = KernelPhase{};
    p.branchDivergence = 1.0;
    EXPECT_THROW(p.validate(), ConfigError);

    p = KernelPhase{};
    p.coalescing = 0.0;
    EXPECT_THROW(p.validate(), ConfigError);
    p.coalescing = 1.1;
    EXPECT_THROW(p.validate(), ConfigError);

    p = KernelPhase{};
    p.l2HitBase = 1.2;
    EXPECT_THROW(p.validate(), ConfigError);

    p = KernelPhase{};
    p.rowHitFraction = -0.1;
    EXPECT_THROW(p.validate(), ConfigError);

    p = KernelPhase{};
    p.mlpPerWave = -1.0;
    EXPECT_THROW(p.validate(), ConfigError);

    p = KernelPhase{};
    p.streamEfficiency = 0.0;
    EXPECT_THROW(p.validate(), ConfigError);
}

TEST(KernelProfile, IdCombinesAppAndName)
{
    KernelProfile k;
    k.app = "App";
    k.name = "Kern";
    EXPECT_EQ(k.id(), "App.Kern");
}

TEST(KernelProfile, PhaseDefaultsToBase)
{
    KernelProfile k;
    // Chars, not "a"/"k": GCC 12 at -O3 reports a false -Wrestrict
    // on these one-letter string-literal assignments.
    k.app = 'a';
    k.name = 'k';
    k.basePhase.aluInstsPerItem = 33.0;
    const KernelPhase p = k.phase(5);
    EXPECT_DOUBLE_EQ(p.aluInstsPerItem, 33.0);
}

TEST(KernelProfile, PhaseFnReceivesIteration)
{
    KernelProfile k;
    k.app = 'a';
    k.name = 'k';
    k.phaseFn = [](const KernelPhase &base, int iter) {
        KernelPhase p = base;
        p.workItems = 1000.0 * (iter + 1);
        return p;
    };
    EXPECT_DOUBLE_EQ(k.phase(0).workItems, 1000.0);
    EXPECT_DOUBLE_EQ(k.phase(3).workItems, 4000.0);
}

TEST(KernelProfile, PhaseFnOutputIsValidated)
{
    KernelProfile k;
    k.app = 'a';
    k.name = 'k';
    k.phaseFn = [](const KernelPhase &base, int) {
        KernelPhase p = base;
        p.workItems = -1.0;
        return p;
    };
    EXPECT_THROW(k.phase(0), ConfigError);
}

TEST(KernelProfile, NegativeIterationThrows)
{
    KernelProfile k;
    k.app = 'a';
    k.name = 'k';
    EXPECT_THROW(k.phase(-1), ConfigError);
}
