/**
 * @file
 * GpuParams::fromConfig validation: thread and depth counts must be at
 * least 1 (checked before the narrowing cast, so -1 cannot wrap),
 * gpu.schedule accepts exactly "horizon" and "rr", and retired keys
 * fail naming what replaced them.
 */

#include <gtest/gtest.h>

#include <string>

#include "gpu/params.hh"

namespace texpim {
namespace {

TEST(GpuParams, RenderThreadsFromConfigKey)
{
    EXPECT_EQ(GpuParams::fromConfig(Config{}).renderThreads, 1u);
    Config cfg;
    cfg.set("gpu.render_threads", "2");
    EXPECT_EQ(GpuParams::fromConfig(cfg).renderThreads, 2u);
}

TEST(GpuParams, ScheduleAcceptsHorizonAndRr)
{
    Config cfg;
    cfg.set("gpu.schedule", "rr");
    EXPECT_EQ(GpuParams::fromConfig(cfg).schedule,
              GpuParams::Schedule::RoundRobin);
    cfg.set("gpu.schedule", "horizon");
    EXPECT_EQ(GpuParams::fromConfig(cfg).schedule,
              GpuParams::Schedule::Horizon);
}

TEST(GpuParamsDeath, CountsBelowOneAreFatal)
{
    for (const char *key : {"gpu.render_threads", "gpu.pipeline_depth"}) {
        for (int v : {-1, 0}) {
            SCOPED_TRACE(std::string(key) + "=" + std::to_string(v));
            Config cfg;
            cfg.set(key, std::to_string(v));
            EXPECT_EXIT({ (void)GpuParams::fromConfig(cfg); },
                        testing::ExitedWithCode(1),
                        std::string(key) + " must be between 1 and " +
                            "[0-9]+, got " + std::to_string(v));
        }
    }
}

TEST(GpuParamsDeath, UnknownScheduleIsFatal)
{
    Config cfg;
    cfg.set("gpu.schedule", "prefetch");
    EXPECT_EXIT({ (void)GpuParams::fromConfig(cfg); },
                testing::ExitedWithCode(1),
                "gpu.schedule must be \"horizon\" or \"rr\", got "
                "\"prefetch\"");
}

TEST(GpuParamsDeath, RetiredDeterministicScheduleIsFatal)
{
    Config cfg;
    cfg.set("gpu.deterministic_schedule", "1");
    EXPECT_EXIT({ (void)GpuParams::fromConfig(cfg); },
                testing::ExitedWithCode(1),
                "'gpu.deterministic_schedule' was removed: use "
                "gpu.schedule=rr");
}

TEST(GpuParamsDeath, RetiredSamplerIsFatal)
{
    Config cfg;
    cfg.set("gpu.sampler", "scalar");
    EXPECT_EXIT({ (void)GpuParams::fromConfig(cfg); },
                testing::ExitedWithCode(1), "'gpu.sampler' was removed");
}

TEST(GpuParamsDeath, RetiredStrictConfigIsFatal)
{
    Config cfg;
    cfg.set("strict_config", "1");
    EXPECT_EXIT({ (void)GpuParams::fromConfig(cfg); },
                testing::ExitedWithCode(1),
                "'strict_config' was removed: unknown config keys are "
                "always fatal");
}

} // namespace
} // namespace texpim
